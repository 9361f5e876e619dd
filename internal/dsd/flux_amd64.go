package dsd

// fluxFaceAVX2 stores fluxElem of the n elements of the columns into f;
// fluxCellAVX2 stores into res the sum from +0 of the nf faces' fluxes, in
// face order. n ≥ 8: whole 8-lane steps, then, when n is not a multiple of
// 8, one last step over the final 8 elements, which overlaps the one before
// it. A lane's result depends only on that lane's inputs and the output is
// not an input, so the overlapped lanes are stored twice with the same bits.
//
//go:noescape
func fluxFaceAVX2(f, tr, pK, gzK, pL, gzL *float32, n int, c *FluxConsts)

//go:noescape
func fluxCellAVX2(res, pK, gzK *float32, faces *cellFaces, nf, n int, c *FluxConsts)

// fluxVector and cellVector run a vector body over whole columns (all
// len(out) long, or cell.n) and report whether they did: not where the host
// has no vector body or the column is shorter than one step, and fluxElem
// does every element then.
func fluxVector(out, tr, pk, gk, pl, gl []float32, c *FluxConsts) bool {
	if !vectorFlux || len(out) < 8 {
		return false
	}
	fluxFaceAVX2(&out[0], &tr[0], &pk[0], &gk[0], &pl[0], &gl[0], len(out), c)
	return true
}

func cellVector(cell *Cell) bool {
	if !vectorFlux || cell.n < 8 {
		return false
	}
	fluxCellAVX2(cell.res, cell.pK, cell.gzK, &cell.faces, cell.nf, cell.n, &cell.c)
	return true
}
