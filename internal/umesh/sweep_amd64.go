package umesh

// quadBlocksAVX2 sweeps the len(xc)/4 whole blocks at q of a packed run: those
// rows of d = accum·xc − flux, with ⟨w, d⟩ added to acc in row order when w
// is not nil. x is the part's local vector, the gathers' base.
//
//go:noescape
func quadBlocksAVX2(q []quadBlock, x, xc, accum, d, w []float64, acc float64) float64

// quadVector runs the vector body over the whole blocks of a packed run of
// len(xs) rows and returns how many rows it did, with the fused dot's
// partial — 0 rows where the host has no vector body; sweep's loop does the
// rest.
func quadVector(quad []quadBlock, x, xs, accum, d, ws []float64, acc float64) (int, float64) {
	if !vectorRows {
		return 0, acc
	}
	return len(xs) &^ 3, quadBlocksAVX2(quad, x, xs, accum, d, ws, acc)
}
