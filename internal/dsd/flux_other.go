//go:build !amd64

package dsd

// fluxVector is the vector body of the face kernel, which only amd64 has:
// here every element streams through fluxElem.
func fluxVector(out, tr, pk, gk, pl, gl []float32, c *FluxConsts, acc bool) uint { return 0 }
