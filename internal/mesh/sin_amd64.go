package mesh

// sinAVX2 stores, for each of the first n elements of x, sin32 of it or NaN
// (recompute with sin32) into dst. n is a positive multiple of 4.
//
//go:noescape
func sinAVX2(dst, x *float32, n int)

// sinVector fills dst with sin32 of each element of x or NaN where the lane
// must be recomputed with sin32. len(dst) == len(x) is a positive multiple
// of 4, and the host has the vector body (vectorSin).
func sinVector(dst, x []float32) {
	sinAVX2(&dst[0], &x[0], len(x))
}
