package mesh

// perturbAVX2 adds float32(amp·sin32(phase + float32(0.001·float32(idx +
// z·step)))) to p[z] over p's whole groups of four from the start, stopping
// at the first group holding a lane it must leave to sin32, and returns how
// many elements it did. Every index it reaches fits int32.
//
//go:noescape
func perturbAVX2(p *float32, n int, phase float32, idx, step int, amp float32) int

// perturbVector is PerturbColumn32's vector pass over p (len(p) ≥ 4, the
// host has the vector body: vectorSin): it returns how many elements it
// perturbed — len(p) &^ 3, or fewer when the group after them holds a lane
// the caller must finish with sin32.
func perturbVector(p []float32, phase float32, idx, step int, amp float32) int {
	return perturbAVX2(&p[0], len(p), phase, idx, step, amp)
}
