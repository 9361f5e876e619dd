package dsd

import (
	"fmt"
	"testing"
)

// BenchmarkKernel* microbenchmarks measure the vector ops at the paper's
// column depth (Nz = 246) and at the shallow functional depth the scaling
// workload uses (Nz = 4), on both the stride-1 fast path and the legacy
// strided loops. CI runs them with -benchtime=1x as a compile-and-run smoke;
// `make bench-kernel` or `go test -bench BenchmarkKernel ./internal/dsd/`
// measures for real.

func benchEngine(b *testing.B, n int) (*Engine, Desc, Desc, Desc, Desc) {
	b.Helper()
	m, err := NewMemory(8 * n)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(m)
	alloc := func() Desc {
		d, err := m.Alloc(n)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	dst, x, y, z := alloc(), alloc(), alloc(), alloc()
	for i := 0; i < n; i++ {
		m.StoreHost(x, i, float32(i%17)+0.5)
		m.StoreHost(y, i, float32(i%13)-6)
		m.StoreHost(z, i, float32(i%7))
	}
	return e, dst, x, y, z
}

// benchPaths runs fn under both op paths as sub-benchmarks.
func benchPaths(b *testing.B, n int, fn func(b *testing.B, e *Engine, dst, x, y, z Desc)) {
	for _, path := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"strided", false}} {
		b.Run(fmt.Sprintf("n=%d/%s", n, path.name), func(b *testing.B) {
			e, dst, x, y, z := benchEngine(b, n)
			prev := SetFastPath(path.fast)
			defer SetFastPath(prev)
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			fn(b, e, dst, x, y, z)
		})
	}
}

func BenchmarkKernelMulVV(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchPaths(b, n, func(b *testing.B, e *Engine, dst, x, y, _ Desc) {
			for i := 0; i < b.N; i++ {
				e.MulVV(dst, x, y)
			}
		})
	}
}

func BenchmarkKernelAddVV(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchPaths(b, n, func(b *testing.B, e *Engine, dst, x, y, _ Desc) {
			for i := 0; i < b.N; i++ {
				e.AddVV(dst, x, y)
			}
		})
	}
}

func BenchmarkKernelSubVV(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchPaths(b, n, func(b *testing.B, e *Engine, dst, x, y, _ Desc) {
			for i := 0; i < b.N; i++ {
				e.SubVV(dst, x, y)
			}
		})
	}
}

func BenchmarkKernelFmaVVV(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchPaths(b, n, func(b *testing.B, e *Engine, dst, x, y, z Desc) {
			for i := 0; i < b.N; i++ {
				e.FmaVVV(dst, x, y, z)
			}
		})
	}
}

func BenchmarkKernelSelGtV(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchPaths(b, n, func(b *testing.B, e *Engine, dst, x, y, z Desc) {
			for i := 0; i < b.N; i++ {
				e.SelGtV(dst, z, x, y)
			}
		})
	}
}

func BenchmarkKernelAccV(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchPaths(b, n, func(b *testing.B, e *Engine, dst, x, _, _ Desc) {
			for i := 0; i < b.N; i++ {
				e.AccV(dst, x)
			}
		})
	}
}

func BenchmarkKernelMovRecv(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchPaths(b, n, func(b *testing.B, e *Engine, dst, _, _, _ Desc) {
			src := make([]float32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.MovRecv(dst, src)
			}
		})
	}
}

// BenchmarkKernelFluxFace measures one face of the residual at the paper's
// column depth — the 14-op kernel plus its accumulation — three ways: the
// flat engine's single FluxFaceAcc pass, the fabric engine's FluxFace into
// the flux column then AccV, and the op-by-op sequence then AccV both fall
// back to. MB/s counts output elements (4 bytes each), so Melem/s is
// MB/s ÷ 4.
func BenchmarkKernelFluxFace(b *testing.B) {
	const n = 246
	for _, variant := range []string{"fused-acc", "fused", "sequence"} {
		b.Run(fmt.Sprintf("n=%d/%s", n, variant), func(b *testing.B) {
			c := newFaceColumns(b, n)
			w := c.e.Mem.words
			for i := 0; i < n; i++ {
				w[c.p.At(i)], w[c.nbrP.At(i)] = 2e7+float32(i%17)*1e4, 2e7+float32(i%13)*1e4
				w[c.gz.At(i)], w[c.nbrGz.At(i)] = -15000+float32(i), -15010+float32(i)
				w[c.tr.At(i)] = 1e-12
			}
			b.SetBytes(4 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch variant {
				case "fused-acc":
					c.e.FluxFaceAcc(c.res, c.f, c.tr, c.p, c.gz, c.nbrP, c.nbrGz, testConsts)
					continue
				case "fused":
					c.e.FluxFace(c.f, c.tr, c.p, c.gz, c.nbrP, c.nbrGz, testConsts)
				default:
					fluxSequence(c.e, c.f, c.tr, c.p, c.gz, c.nbrP, c.nbrGz, testConsts, c.scratch)
				}
				c.e.AccV(c.res, c.f)
			}
		})
	}
}
