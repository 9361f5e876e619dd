//go:build !amd64

package umesh

// quadVector is the packed rows' vector body, which only amd64 has: here
// sweep's loop does every row.
func quadVector(quad []quadBlock, x, xs, accum, d, ws []float64, acc float64) (int, float64) {
	return 0, acc
}
