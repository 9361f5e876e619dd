//go:build !amd64

package mesh

// perturbVector is the perturbation's vector pass, which only amd64 has:
// vectorSin is false here, and this stub leaves every element to sin32.
func perturbVector(p []float32, phase float32, idx, step int, amp float32) int { return 0 }
