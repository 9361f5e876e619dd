//go:build !amd64

package dsd

// cellVector is the face kernel's vector body, which only amd64 has: here
// every element streams through fluxElem.
func cellVector(cell *Cell) bool { return false }
