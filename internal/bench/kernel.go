package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dsd"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// This file is the fast-path kernel experiment: the host simulator's hot
// layers — the dsd vector ops and the whole flat engine — measured on both
// the stride-1 fast path and the legacy strided loops, with the bit-identity
// of the two paths verified in the same run. The JSON report (BENCH_kernel.json) is the
// single-core trajectory anchor the ROADMAP's "fast as the hardware allows"
// goal is tracked against; the strong-scaling baseline builds on top of it.

// KernelConfig sizes the kernel benchmark.
type KernelConfig struct {
	// Dims is the engine workload (default 128×128×4 — the strong-scaling
	// mesh, so the two baselines share a shape).
	Dims mesh.Dims
	// Apps is the application count per engine run (default 3).
	Apps int
	// VecLen is the dsd op vector length (default 246, the paper's deepest
	// column).
	VecLen int
	// OpIters is the op-loop iteration count per measurement (default 2e5).
	OpIters int
}

func (c KernelConfig) withDefaults() KernelConfig {
	if c.Dims == (mesh.Dims{}) {
		c.Dims = mesh.Dims{Nx: 128, Ny: 128, Nz: 4}
	}
	if c.Apps == 0 {
		c.Apps = 3
	}
	if c.VecLen == 0 {
		c.VecLen = 246
	}
	if c.OpIters == 0 {
		c.OpIters = 200_000
	}
	return c
}

// KernelOpRate is one dsd op's throughput on both op paths.
type KernelOpRate struct {
	Op                  string  `json:"op"`
	FastMElemsPerSec    float64 `json:"fast_melems_per_sec"`
	StridedMElemsPerSec float64 `json:"strided_melems_per_sec"`
	// Speedup is fast over strided.
	Speedup float64 `json:"speedup"`
}

// KernelBench is the kernel benchmark outcome. It serializes to the
// BENCH_kernel.json baseline future PRs compare against.
type KernelBench struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`

	VecLen int            `json:"vec_len"`
	Ops    []KernelOpRate `json:"ops"`

	Dims mesh.Dims `json:"dims"`
	Apps int       `json:"apps"`
	// Engine seconds are serial RunFlat wall-clock (application loop only)
	// on the two op paths; Mcells the corresponding host throughput.
	EngineFastSeconds    float64 `json:"engine_fast_seconds"`
	EngineStridedSeconds float64 `json:"engine_strided_seconds"`
	EngineFastMcells     float64 `json:"engine_fast_mcells_per_sec"`
	EngineStridedMcells  float64 `json:"engine_strided_mcells_per_sec"`
	EngineSpeedup        float64 `json:"engine_speedup"`

	// BitIdentical records that the two paths' residuals and counters
	// matched exactly; a divergence aborts the run with an error.
	BitIdentical bool `json:"bit_identical"`
}

// opCase is one measured dsd op.
type opCase struct {
	name string
	run  func(e *dsd.Engine, a *opArgs)
}

// opArgs are the operands every measured op draws from: a destination, three
// inputs, a fabric column, and five scratch views that only the face kernel's
// op-by-op fallback writes.
type opArgs struct {
	dst, x, y, z dsd.Desc
	recv         []float32
	scratch      [5]dsd.Desc
}

var kernelOps = []opCase{
	{"MulVV", func(e *dsd.Engine, a *opArgs) { e.MulVV(a.dst, a.x, a.y) }},
	{"AddVV", func(e *dsd.Engine, a *opArgs) { e.AddVV(a.dst, a.x, a.y) }},
	{"SubVV", func(e *dsd.Engine, a *opArgs) { e.SubVV(a.dst, a.x, a.y) }},
	{"FmaVVV", func(e *dsd.Engine, a *opArgs) { e.FmaVVV(a.dst, a.x, a.y, a.z) }},
	{"SelGtV", func(e *dsd.Engine, a *opArgs) { e.SelGtV(a.dst, a.z, a.x, a.y) }},
	{"AccV", func(e *dsd.Engine, a *opArgs) { e.AccV(a.dst, a.x) }},
	{"MovRecv", func(e *dsd.Engine, a *opArgs) { e.MovRecv(a.dst, a.recv) }},
	{"FluxFace", fluxFace},
}

// fluxFace is the whole 14-op face kernel as the engines issue it: the fused
// macro-op on the fast path and, when that declines (fast path off), the same
// ops one by one through five reused scratch buffers — so this row's
// "strided" column is the per-op kernel the macro-op replaced, and its
// speedup is the fusion's.
func fluxFace(e *dsd.Engine, a *opArgs) {
	c := dsd.FluxConsts{AHat: 7e-6, CHat: 595, NegC: -595, InvMu: 16666}
	f, tr, pK, gzK := a.dst, a.x, a.y, a.z
	pL, gzL := a.x, a.y // any in-bounds inputs do; they may overlap each other
	if e.FluxFace(f, tr, pK, gzK, pL, gzL, c) {
		return
	}
	s := &a.scratch
	e.SubVV(s[0], pL, pK)
	e.SubVV(s[1], gzL, gzK)
	e.MulVS(s[2], pK, c.AHat)
	e.MulVS(s[3], pL, c.AHat)
	e.AddVV(s[4], s[2], s[3])
	e.FmaVSS(s[4], s[4], 0.5, c.CHat)
	e.MulVV(s[1], s[4], s[1])
	e.NegV(s[1], s[1])
	e.SubVV(s[0], s[0], s[1])
	e.SelGtV(s[3], s[0], s[2], s[3])
	e.SubVS(s[3], s[3], c.NegC)
	e.MulVS(s[3], s[3], c.InvMu)
	e.MulVV(s[0], tr, s[0])
	e.MulVV(f, s[0], s[3])
}

// measureOp times iters issues of one op at vector length n and returns the
// element throughput in Melem/s.
func measureOp(op opCase, n, iters int) (float64, error) {
	m, err := dsd.NewMemory(9 * n)
	if err != nil {
		return 0, err
	}
	e := dsd.NewEngine(m)
	var blocks [9]dsd.Desc
	for i := range blocks {
		if blocks[i], err = m.Alloc(n); err != nil {
			return 0, err
		}
	}
	a := &opArgs{dst: blocks[0], x: blocks[1], y: blocks[2], z: blocks[3], recv: make([]float32, n)}
	copy(a.scratch[:], blocks[4:])
	for i := 0; i < n; i++ {
		m.StoreHost(a.x, i, float32(i%17)+0.5)
		m.StoreHost(a.y, i, float32(i%13)-6)
		m.StoreHost(a.z, i, float32(i%7)-3)
	}
	// Warm-up pass so neither path pays first-touch costs.
	for i := 0; i < 64; i++ {
		op.run(e, a)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		op.run(e, a)
	}
	sec := time.Since(start).Seconds()
	if sec <= 0 {
		return 0, nil
	}
	return float64(n) * float64(iters) / sec / 1e6, nil
}

// RunKernelBench measures the dsd ops and the serial flat engine on both op
// paths and verifies the paths bit-identical.
func RunKernelBench(cfg KernelConfig) (*KernelBench, error) {
	cfg = cfg.withDefaults()
	out := &KernelBench{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		VecLen:     cfg.VecLen,
		Dims:       cfg.Dims,
		Apps:       cfg.Apps,
	}

	for _, op := range kernelOps {
		fastRate, err := withFastPath(true, func() (float64, error) {
			return measureOp(op, cfg.VecLen, cfg.OpIters)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: op %s (fast): %w", op.name, err)
		}
		strRate, err := withFastPath(false, func() (float64, error) {
			return measureOp(op, cfg.VecLen, cfg.OpIters)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: op %s (strided): %w", op.name, err)
		}
		rate := KernelOpRate{Op: op.name, FastMElemsPerSec: fastRate, StridedMElemsPerSec: strRate}
		if strRate > 0 {
			rate.Speedup = fastRate / strRate
		}
		out.Ops = append(out.Ops, rate)
	}

	m, err := mesh.BuildDefault(cfg.Dims)
	if err != nil {
		return nil, err
	}
	fl := physics.DefaultFluid()
	opts := core.DefaultOptions(cfg.Apps)
	opts.MemWords = core.WordsPerZ(opts.BufferReuse)*cfg.Dims.Nz + core.FixedWords

	engineRun := func(fast bool) (*core.Result, error) {
		return withFastPath(fast, func() (*core.Result, error) {
			// Warm-up run, then a GC so both paths start with the same
			// heap state (mirrors the strong-scaling methodology).
			if _, err := core.RunFlat(m, fl, opts); err != nil {
				return nil, err
			}
			runtime.GC()
			return core.RunFlat(m, fl, opts)
		})
	}
	fast, err := engineRun(true)
	if err != nil {
		return nil, fmt.Errorf("bench: engine (fast): %w", err)
	}
	strided, err := engineRun(false)
	if err != nil {
		return nil, fmt.Errorf("bench: engine (strided): %w", err)
	}
	for i := range fast.Residual {
		if fast.Residual[i] != strided.Residual[i] {
			return nil, fmt.Errorf("bench: fast path residual[%d] diverged from strided (%g vs %g)",
				i, fast.Residual[i], strided.Residual[i])
		}
	}
	if fast.Counters != strided.Counters {
		return nil, fmt.Errorf("bench: fast path counters diverged from strided")
	}
	out.BitIdentical = true
	out.EngineFastSeconds = fast.Elapsed.Seconds()
	out.EngineStridedSeconds = strided.Elapsed.Seconds()
	out.EngineFastMcells = fast.HostThroughput() / 1e6
	out.EngineStridedMcells = strided.HostThroughput() / 1e6
	if out.EngineFastSeconds > 0 {
		out.EngineSpeedup = out.EngineStridedSeconds / out.EngineFastSeconds
	}
	return out, nil
}

// withFastPath runs fn with the dsd fast path forced to the given setting.
func withFastPath[T any](on bool, fn func() (T, error)) (T, error) {
	prev := dsd.SetFastPath(on)
	defer dsd.SetFastPath(prev)
	return fn()
}

// WriteJSON writes the benchmark as indented JSON — the BENCH_kernel.json
// baseline format.
func (k *KernelBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(k)
}

// Render writes the benchmark as a table.
func (k *KernelBench) Render(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "Kernel fast path — dsd ops and serial flat engine, stride-1 vs strided")
	fmt.Fprintf(tw, "host: %s, NumCPU %d, GOMAXPROCS %d\n", k.GoVersion, k.NumCPU, k.GOMAXPROCS)
	fmt.Fprintf(tw, "\nvector ops at length %d:\n", k.VecLen)
	fmt.Fprintln(tw, "op\tfast [Melem/s]\tstrided [Melem/s]\tspeedup")
	for _, r := range k.Ops {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.2fx\n", r.Op, r.FastMElemsPerSec, r.StridedMElemsPerSec, r.Speedup)
	}
	fmt.Fprintf(tw, "\nserial flat engine, %dx%dx%d mesh, %d applications:\n",
		k.Dims.Nx, k.Dims.Ny, k.Dims.Nz, k.Apps)
	fmt.Fprintf(tw, "fast path\t%.4f s\t%.2f Mcell/s\n", k.EngineFastSeconds, k.EngineFastMcells)
	fmt.Fprintf(tw, "strided\t%.4f s\t%.2f Mcell/s\n", k.EngineStridedSeconds, k.EngineStridedMcells)
	fmt.Fprintf(tw, "speedup\t%.2fx\tbit-identical: %v\n", k.EngineSpeedup, k.BitIdentical)
	return tw.Flush()
}
