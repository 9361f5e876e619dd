package main

import "time"

// The yardstick is the benchmark's own reference kernel, run immediately
// before every timed operation; the operation's seconds are scaled by
// nominalYardstick / yardstick seconds — "seconds at nominal host speed".
//
// It is a float64 triad a[i] = b[i] + s·c[i] in two halves of about equal
// time: 20 sweeps over three 4 MiB arrays (streaming: memory bandwidth) and
// 2560 sweeps over three 64 KiB arrays (cache-resident: core speed). On the
// 2-vCPU shared VM this was sized on, the host's slow periods slow the
// workloads 1.2–1.8 times as much as they slow the streaming triad alone and
// about as much as they slow the cache-resident one, but not every time; the
// sum was never the worse of the two. Raw medians of identical code range
// over ±20 % within minutes; divided by the interleaved yardstick their
// quartile spread is 2–4 %.
const (
	streamWords      = 512 * 1024 // float64s per streaming array: 4 MiB
	streamSweeps     = 20
	residentWords    = 8 * 1024 // float64s per cache-resident array: 64 KiB
	residentSweeps   = 2560
	nominalYardstick = 0.025 // seconds both halves take on the sizing host
)

type yardstick struct {
	stream, resident [3][]float64 // a, b, c of each half
	// seen records every reading, for host.yardstick_s_p50 and the
	// noisy-host flag.
	seen []float64
}

func newYardstick() *yardstick {
	return &yardstick{stream: triadArrays(streamWords), resident: triadArrays(residentWords)}
}

func triadArrays(words int) (arrays [3][]float64) {
	for i := range arrays {
		arrays[i] = make([]float64, words)
	}
	for i := range arrays[1] {
		arrays[1][i] = float64(i)
		arrays[2][i] = 1
	}
	return arrays
}

func triad(arrays *[3][]float64, sweeps int) {
	a := arrays[0]
	b, c := arrays[1][:len(a)], arrays[2][:len(a)]
	for s := 0; s < sweeps; s++ {
		k := float64(s)
		for i := range a {
			a[i] = b[i] + k*c[i]
		}
	}
}

// run executes both halves once and returns their wall-clock seconds.
func (y *yardstick) run() float64 {
	start := time.Now()
	triad(&y.stream, streamSweeps)
	triad(&y.resident, residentSweeps)
	sec := time.Since(start).Seconds()
	y.seen = append(y.seen, sec)
	return sec
}

// sample is one timed operation with the yardstick reading taken just before.
type sample struct {
	raw  float64 // wall-clock seconds
	yard float64 // yardstick seconds
}

// normalised converts raw seconds to seconds at nominal host speed.
func normalised(raw, yard float64) float64 {
	if yard <= 0 {
		return raw
	}
	return raw * nominalYardstick / yard
}

func (s sample) norm() float64 { return normalised(s.raw, s.yard) }

// timed runs the yardstick and then fn, and returns both readings.
func (y *yardstick) timed(fn func()) sample {
	yard := y.run()
	start := time.Now()
	fn()
	return sample{raw: time.Since(start).Seconds(), yard: yard}
}

func norms(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.norm()
	}
	return out
}

func raws(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.raw
	}
	return out
}
