package dsd

import (
	"fmt"
	"testing"
)

// BenchmarkKernel* microbenchmarks measure the vector ops at the paper's
// column depth (Nz = 246) and at the shallow functional depth the scaling
// workload uses (Nz = 4). CI runs them with -benchtime=1x as a
// compile-and-run smoke; `make bench-kernel` or `go test -bench
// BenchmarkKernel ./internal/dsd/` measures for real.

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

// benchOp runs fn over n-element columns as the sub-benchmark n=<n>.
func benchOp(b *testing.B, n int, fn func(b *testing.B, e *Engine, dst, x, y, z Desc)) {
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		e, dst, x, y, z := benchEngine(b, n)
		b.SetBytes(int64(4 * n))
		b.ResetTimer()
		fn(b, e, dst, x, y, z)
	})
}

func BenchmarkKernelMulVV(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchOp(b, n, func(b *testing.B, e *Engine, dst, x, y, _ Desc) {
			for i := 0; i < b.N; i++ {
				e.MulVV(dst, x, y)
			}
		})
	}
}

func BenchmarkKernelAddVV(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchOp(b, n, func(b *testing.B, e *Engine, dst, x, y, _ Desc) {
			for i := 0; i < b.N; i++ {
				e.AddVV(dst, x, y)
			}
		})
	}
}

func BenchmarkKernelSubVV(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchOp(b, n, func(b *testing.B, e *Engine, dst, x, y, _ Desc) {
			for i := 0; i < b.N; i++ {
				e.SubVV(dst, x, y)
			}
		})
	}
}

func BenchmarkKernelFmaVVV(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchOp(b, n, func(b *testing.B, e *Engine, dst, x, y, z Desc) {
			for i := 0; i < b.N; i++ {
				e.FmaVVV(dst, x, y, z)
			}
		})
	}
}

func BenchmarkKernelSelGtV(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchOp(b, n, func(b *testing.B, e *Engine, dst, x, y, z Desc) {
			for i := 0; i < b.N; i++ {
				e.SelGtV(dst, z, x, y)
			}
		})
	}
}

func BenchmarkKernelAccV(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchOp(b, n, func(b *testing.B, e *Engine, dst, x, _, _ Desc) {
			for i := 0; i < b.N; i++ {
				e.AccV(dst, x)
			}
		})
	}
}

func BenchmarkKernelMovRecv(b *testing.B) {
	for _, n := range []int{4, 246} {
		benchOp(b, n, func(b *testing.B, e *Engine, dst, _, _, _ Desc) {
			src := make([]float32, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.MovRecv(dst, src)
			}
		})
	}
}

// BenchmarkKernelFluxFace measures the residual's faces at the paper's
// column depth four ways: the flat engine's whole application of one PE as
// one FluxCell over ten faces, eight of them read off the wire (through the
// vector body where the host has one, and as cell-scalar through fluxElem
// alone); and one face as the fabric engine evaluates it, FluxFace into the
// flux column then AccV, and as the op-by-op sequence then AccV — the
// spelling the tests hold the macro-ops to, so its time is the oracle's cost.
// MB/s counts face evaluations (4 bytes per element of each face), so Melem/s
// is MB/s ÷ 4 whatever the face count.
func BenchmarkKernelFluxFace(b *testing.B) {
	const n = 246
	for _, variant := range []string{"cell", "cell-scalar", "fused", "sequence"} {
		b.Run(fmt.Sprintf("n=%d/%s", n, variant), func(b *testing.B) {
			defer func(v bool) { vectorFlux = v }(vectorFlux)
			if variant == "cell-scalar" {
				vectorFlux = false
			}
			if variant == "cell" || variant == "cell-scalar" {
				benchCell(b, n)
				return
			}
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
				if variant == "fused" {
					c.e.FluxFace(c.f, c.tr, c.p, c.gz, c.nbrP, c.nbrGz, testConsts)
				} else {
					fluxSequence(c.e, c.f, c.tr, c.p, c.gz, c.nbrP, c.nbrGz, testConsts, c.scratch)
				}
				c.e.AccV(c.res, c.f)
			}
		})
	}
}

// benchCell times one FluxCell over an interior PE's ten faces: eight
// in-plane ones on their own wire columns, then Down and Up.
func benchCell(b *testing.B, n int) {
	c := newCellColumns(b, n)
	w := c.e.Mem.words
	for i := 0; i < n; i++ {
		w[c.p.At(i)], w[c.gz.At(i)] = 2e7+float32(i%17)*1e4, -15000+float32(i)
		for k := range c.tr {
			w[c.tr[k].At(i)] = 1e-12
		}
	}
	faces := make([]Face, 0, maxCellFaces)
	for s := range 8 {
		wire := make([]float32, 2*n)
		for i := 0; i < n; i++ {
			wire[i], wire[n+i] = 2e7+float32((i+s)%13)*1e4, -15010+float32(i)
		}
		faces = append(faces, c.face(s, s, wire))
	}
	faces = append(faces, c.face(slotDown, 8, nil), c.face(slotUp, 9, nil))
	b.SetBytes(4 * int64(n*len(faces)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.e.FluxCell(c.res, c.p, c.gz, faces, testConsts)
	}
}
