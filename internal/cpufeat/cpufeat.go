// Package cpufeat probes the host processor once, at start-up, for the
// instruction sets the vector bodies of dsd, mesh and umesh need. It is the
// one place that decides between a vector body and its portable Go spelling:
// there is no flag, environment variable or build tag, and a host without
// the features runs the Go code unchanged.
package cpufeat

// AVX2FMA reports whether the vector bodies — dsd's face kernel, mesh's
// perturbation sine, umesh's packed-row sweep — run on this host: amd64 with
// AVX2 and FMA, and the OS saving the YMM registers across context switches.
// It is set before main runs and never written again.
var AVX2FMA = detect()
