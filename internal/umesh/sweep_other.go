//go:build !amd64

package umesh

// The vector bodies are amd64's alone: here the Go loops do every row and
// every element.

func quadVector(heads []quadHead, slots []quadSlot, x, xs, accum, d, ws []float64) (float64, bool) {
	return 0, false
}

func cgTailVector(x, p, r, ap, z, inv []float64, alpha float64) (int, float64, float64) {
	return 0, 0, 0
}

func xpbyVector(y, x []float64, beta float64) int { return 0 }

func amgPreVector(z, inv, r []float64) int { return 0 }

func amgPostVector(z, inv, r, w []float64) int { return 0 }

func amgProlongVector(z, ec []float64, agg []int32) int { return 0 }

func coarseApplyVector(w, z []float64, idx [][4]int32, val [][4]float64, k int) bool { return false }

func restrictVector(out, r, w []float64, idx [][4]int32, k int) bool { return false }
