package dsd

// fluxFaceAVX2 stores fluxElem of the first n elements of the columns into
// f; fluxCellAVX2 stores into res the sum from +0 of the nf faces' fluxes, in
// face order. n is a positive multiple of 8.
//
//go:noescape
func fluxFaceAVX2(f, tr, pK, gzK, pL, gzL *float32, n int, c *FluxConsts)

//go:noescape
func fluxCellAVX2(res, pK, gzK *float32, faces *cellFaces, nf, n int, c *FluxConsts)

// fluxVector and cellVector run a vector body over the columns' (all
// len(out) or len(res) long) whole 8-lane steps and return how many elements
// they did — 0 where the host has no vector body; fluxElem does the rest.
func fluxVector(out, tr, pk, gk, pl, gl []float32, c *FluxConsts) uint {
	n := len(out) &^ 7
	if !vectorFlux || n == 0 {
		return 0
	}
	fluxFaceAVX2(&out[0], &tr[0], &pk[0], &gk[0], &pl[0], &gl[0], n, c)
	return uint(n)
}

func cellVector(res, pk, gk []float32, faces *cellFaces, nf int, c *FluxConsts) uint {
	n := len(res) &^ 7
	if !vectorFlux || n == 0 {
		return 0
	}
	fluxCellAVX2(&res[0], &pk[0], &gk[0], faces, nf, n, c)
	return uint(n)
}
