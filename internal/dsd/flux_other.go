//go:build !amd64

package dsd

// fluxVector and cellVector are the face kernel's vector bodies, which only
// amd64 has: here every element streams through fluxElem.
func fluxVector(out, tr, pk, gk, pl, gl []float32, c *FluxConsts) bool { return false }

func cellVector(cell *Cell) bool { return false }
