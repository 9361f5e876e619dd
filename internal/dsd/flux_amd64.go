package dsd

// fluxCellAVX2 stores into res the sum from +0 of the nf faces' fluxes, in
// face order. n ≥ 8: whole 8-lane steps, then, when n is not a multiple of
// 8, one last step over the final 8 elements, which overlaps the one before
// it. A lane's result depends only on that lane's inputs and the output is
// not an input, so the overlapped lanes are stored twice with the same bits.
//
//go:noescape
func fluxCellAVX2(res, pK, gzK *float32, faces *cellFaces, nf, n int, c *FluxConsts)

// cellVector runs the vector body over a whole cell and reports whether it
// did: not where the host has no vector body or the column is shorter than
// one step, and fluxElem does every element then.
func cellVector(cell *Cell) bool {
	if !vectorFlux || cell.n < 8 {
		return false
	}
	fluxCellAVX2(cell.res, cell.pK, cell.gzK, &cell.faces, cell.nf, cell.n, &cell.c)
	return true
}
