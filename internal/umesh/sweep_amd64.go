package umesh

// quadRowsAVX2 is quadRows: the quads of one block, whose rows xc, accum and
// d (and w, unless nil) window, returning the block's partial of ⟨w, d⟩.
//
//go:noescape
func quadRowsAVX2(heads []quadHead, slots []quadSlot, x, xc, accum, d, w []float64) float64

// cgTailAVX2 is shardCGStepPre's loop over the len(x)/4 whole groups of four
// of a block, returning the block's partials of ⟨r, r⟩ and ⟨r, z⟩ so far.
//
//go:noescape
func cgTailAVX2(x, p, r, ap, z, inv []float64, alpha float64) (rr, rz float64)

// xpbyAVX2 is shardXpby's loop over the len(y)/4 whole groups of four.
//
//go:noescape
func xpbyAVX2(y, x []float64, beta float64)

// amgPreAVX2 and amgPostAVX2 are amgPre's and amgPost's loops over the
// len(z)/4 whole groups of four, with omega the Jacobi weight.
//
//go:noescape
func amgPreAVX2(z, inv, r []float64, omega float64)

//go:noescape
func amgPostAVX2(z, inv, r, w []float64, omega float64)

// amgProlongAVX2 is amgProlong's loop over the len(z)/4 whole groups of four.
//
//go:noescape
func amgProlongAVX2(z, ec []float64, agg []int32)

// coarseApplyAVX2 and restrictAVX2 are coarseApplyGo and restrictGo: one
// bucket's lane-major groups of rows of k entries.
//
//go:noescape
func coarseApplyAVX2(w, z []float64, idx [][4]int32, val [][4]float64, k int)

//go:noescape
func restrictAVX2(out, r, w []float64, idx [][4]int32, k int)

// quadVector runs the vector body over the quads of one block and returns
// the block's partial of the fused dot, and false where the host has no
// vector body: quadRows then does the block.
func quadVector(heads []quadHead, slots []quadSlot, x, xs, accum, d, ws []float64) (float64, bool) {
	if !vectorRows {
		return 0, false
	}
	return quadRowsAVX2(heads, slots, x, xs, accum, d, ws), true
}

// cgTailVector and xpbyVector run the CG tail's vector bodies over the whole
// groups of four of their windows and return how many elements they did (with
// the block's two partials); the kernels' Go loops do the rest.
func cgTailVector(x, p, r, ap, z, inv []float64, alpha float64) (int, float64, float64) {
	if !vectorRows {
		return 0, 0, 0
	}
	rr, rz := cgTailAVX2(x, p, r, ap, z, inv, alpha)
	return len(x) &^ 3, rr, rz
}

func xpbyVector(y, x []float64, beta float64) int {
	if !vectorRows {
		return 0
	}
	xpbyAVX2(y, x, beta)
	return len(y) &^ 3
}

// amgPreVector and amgPostVector run the smoothing steps' vector bodies over
// the whole groups of four and return how many elements they did; the Go
// loops do the rest.
func amgPreVector(z, inv, r []float64) int {
	if !vectorRows {
		return 0
	}
	amgPreAVX2(z, inv, r, amgOmega)
	return len(z) &^ 3
}

func amgPostVector(z, inv, r, w []float64) int {
	if !vectorRows {
		return 0
	}
	amgPostAVX2(z, inv, r, w, amgOmega)
	return len(z) &^ 3
}

// amgProlongVector runs the prolongation's vector body over the whole groups
// of four and returns how many elements it did; the Go loop does the rest.
func amgProlongVector(z, ec []float64, agg []int32) int {
	if !vectorRows {
		return 0
	}
	amgProlongAVX2(z, ec, agg)
	return len(z) &^ 3
}

// coarseApplyVector and restrictVector run a bucket through the A_c
// product's or the restriction's vector body and report false where the
// host has none: the Go spelling then does the bucket.
func coarseApplyVector(w, z []float64, idx [][4]int32, val [][4]float64, k int) bool {
	if !vectorRows {
		return false
	}
	coarseApplyAVX2(w, z, idx, val, k)
	return true
}

func restrictVector(out, r, w []float64, idx [][4]int32, k int) bool {
	if !vectorRows {
		return false
	}
	restrictAVX2(out, r, w, idx, k)
	return true
}
