//go:build !amd64

package mesh

// sinVector is the perturbation sine's vector body, which only amd64 has:
// vectorSin is false here, and this spelling is sin32 itself.
func sinVector(dst, x []float32) {
	for i := range dst {
		dst[i] = sin32(x[i])
	}
}
