package dsd

// fluxFaceAVX2 stores fluxElem of the first n elements of the columns into
// f; fluxFaceAccAVX2 adds them to res. n is a positive multiple of 8.
//
//go:noescape
func fluxFaceAVX2(f, tr, pK, gzK, pL, gzL *float32, n int, c *FluxConsts)

//go:noescape
func fluxFaceAccAVX2(res, tr, pK, gzK, pL, gzL *float32, n int, c *FluxConsts)

// fluxVector runs the vector body over the columns' (all len(out) long) whole
// 8-lane steps, storing into out or adding to it (acc), and returns how many
// elements it did — 0 where the host has no vector body; fluxElem does the rest.
func fluxVector(out, tr, pk, gk, pl, gl []float32, c *FluxConsts, acc bool) uint {
	n := len(out) &^ 7
	if !vectorFlux || n == 0 {
		return 0
	}
	if acc {
		fluxFaceAccAVX2(&out[0], &tr[0], &pk[0], &gk[0], &pl[0], &gl[0], n, c)
	} else {
		fluxFaceAVX2(&out[0], &tr[0], &pk[0], &gk[0], &pl[0], &gl[0], n, c)
	}
	return uint(n)
}
