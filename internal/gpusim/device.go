// Package gpusim is a functional GPU execution simulator standing in for the
// paper's NVIDIA A100 (§6–7): device memory with explicit host↔device
// copies, dim3 grid/block kernel launches executed on a host worker pool,
// per-thread arithmetic with FLOP and memory-traffic counters, and an
// occupancy model. The RAJA-style and CUDA-style flux kernels in
// internal/kernels run on it; internal/perfmodel converts its counters into
// projected A100 wall-clock.
package gpusim

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/units"
)

// Dim3 is the CUDA-style 3-component extent.
type Dim3 struct{ X, Y, Z int }

// Count returns X·Y·Z.
func (d Dim3) Count() int { return d.X * d.Y * d.Z }

func (d Dim3) valid() bool { return d.X > 0 && d.Y > 0 && d.Z > 0 }

// DeviceSpec captures the hardware characteristics the experiments need.
type DeviceSpec struct {
	Name               string
	SMs                int     // streaming multiprocessors
	WarpSize           int     // threads per warp
	MaxThreadsPerBlock int     // CUDA limit (1024, §6)
	MaxWarpsPerSM      int     // architectural warp slots per SM
	ResidentBlocksWave int     // blocks resident per SM for this kernel's register budget
	ClockHz            float64 // boost clock
	PeakFP32           float64 // FLOP/s
	MemBytes           int64   // device memory (40 GB, §7.1)
	// ERTBandwidth is the streaming bandwidth an Empirical-Roofline-Toolkit
	// sweep measures on this device (word-level traffic; see
	// internal/roofline). Calibrated so the RAJA kernel's achieved fraction
	// matches the paper's 76 % (§7.3).
	ERTBandwidth float64
	PowerWatts   float64 // peak board power under this workload (§7.2)
}

// A100 returns the evaluation GPU of §7.1.
func A100() DeviceSpec {
	return DeviceSpec{
		Name:               "NVIDIA A100-40GB",
		SMs:                108,
		WarpSize:           32,
		MaxThreadsPerBlock: 1024,
		MaxWarpsPerSM:      64,
		ResidentBlocksWave: 1, // 1024-thread blocks with this register budget
		ClockHz:            1.41e9,
		PeakFP32:           19.5e12,
		MemBytes:           40 * units.GiB,
		ERTBandwidth:       1.891e12,
		PowerWatts:         250,
	}
}

// Buffer is a device-memory allocation of float32 words.
type Buffer struct {
	data []float32
	name string
}

// Len returns the buffer length in words.
func (b *Buffer) Len() int { return len(b.data) }

// Mutate lets the host rewrite buffer contents in place (the analog of the
// host preparing the next input vector; not counted as kernel traffic).
// It must not race with a running Launch.
func (b *Buffer) Mutate(f func(data []float32)) { f(b.data) }

// Device is one simulated GPU.
type Device struct {
	Spec DeviceSpec

	allocated int64
	buffers   []*Buffer

	HostToDeviceBytes uint64
	DeviceToHostBytes uint64

	Workers int // host worker pool size for Launch (default NumCPU)
}

// NewDevice creates a device with empty memory.
func NewDevice(spec DeviceSpec) *Device { return &Device{Spec: spec} }

// Malloc allocates a named device buffer of n float32 words.
func (d *Device) Malloc(name string, n int) (*Buffer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gpusim: allocation %q must be positive, got %d", name, n)
	}
	bytes := int64(n) * 4
	if d.allocated+bytes > d.Spec.MemBytes {
		return nil, fmt.Errorf("gpusim: out of device memory allocating %q: %d + %d > %d bytes",
			name, d.allocated, bytes, d.Spec.MemBytes)
	}
	d.allocated += bytes
	b := &Buffer{data: make([]float32, n), name: name}
	d.buffers = append(d.buffers, b)
	return b, nil
}

// CopyToDevice is the cudaMemcpy H2D analog.
func (d *Device) CopyToDevice(dst *Buffer, src []float32) error {
	if len(src) != len(dst.data) {
		return fmt.Errorf("gpusim: H2D copy to %q: %d words into %d", dst.name, len(src), len(dst.data))
	}
	copy(dst.data, src)
	d.HostToDeviceBytes += uint64(4 * len(src))
	return nil
}

// CopyToHost is the cudaMemcpy D2H analog.
func (d *Device) CopyToHost(src *Buffer) []float32 {
	out := make([]float32, len(src.data))
	copy(out, src.data)
	d.DeviceToHostBytes += uint64(4 * len(out))
	return out
}

// KernelStats aggregates one launch's execution counters.
type KernelStats struct {
	Grid, Block     Dim3
	ThreadsLaunched uint64
	ThreadsActive   uint64 // threads that did not early-return
	Flops           uint64
	ExpCalls        uint64
	LoadWords       uint64
	StoreWords      uint64
	Blocks          uint64
}

// Bytes returns the word-level memory traffic in bytes.
func (k *KernelStats) Bytes() uint64 { return 4 * (k.LoadWords + k.StoreWords) }

// Add accumulates other into k (used to sum stats across launches).
func (k *KernelStats) Add(o *KernelStats) {
	k.ThreadsLaunched += o.ThreadsLaunched
	k.ThreadsActive += o.ThreadsActive
	k.Flops += o.Flops
	k.ExpCalls += o.ExpCalls
	k.LoadWords += o.LoadWords
	k.StoreWords += o.StoreWords
	k.Blocks += o.Blocks
}

// Occupancy reports the §7.2 occupancy characteristics for a launch of the
// given block size: warps per SM and occupancy fraction, with the calibrated
// warp-efficiency factor accounting for launch/drain overheads (paper: 30.79
// of 32 warps, 48.11 % of the 50 % theoretical bound).
type Occupancy struct {
	TheoreticalWarpsPerSM float64
	AchievedWarpsPerSM    float64
	TheoreticalFraction   float64
	AchievedFraction      float64
}

// warpEfficiency is the calibrated active-warp fraction (30.79/32).
const warpEfficiency = 0.9622

// OccupancyFor models a launch with the given block size.
func (d *Device) OccupancyFor(block Dim3) Occupancy {
	warpsPerBlock := float64(block.Count()) / float64(d.Spec.WarpSize)
	theoWarps := warpsPerBlock * float64(d.Spec.ResidentBlocksWave)
	occ := Occupancy{
		TheoreticalWarpsPerSM: theoWarps,
		AchievedWarpsPerSM:    theoWarps * warpEfficiency,
		TheoreticalFraction:   theoWarps / float64(d.Spec.MaxWarpsPerSM),
	}
	occ.AchievedFraction = occ.TheoreticalFraction * warpEfficiency
	return occ
}

// ThreadCtx is a kernel thread's view: indices plus counted arithmetic and
// memory accessors. All counting flows through this type, so the stats are
// measurements of the kernel as written, not assumptions.
type ThreadCtx struct {
	BlockIdx  Dim3
	ThreadIdx Dim3
	BlockDim  Dim3
	GridDim   Dim3

	active bool
	c      *KernelStats // per-worker, merged at the end
}

// Return marks the thread as early-returned (the CUDA variant's boundary
// guard); inactive threads are excluded from ThreadsActive.
func (t *ThreadCtx) Return() { t.active = false }

// Load reads one word from a device buffer (counted).
func (t *ThreadCtx) Load(b *Buffer, idx int) float32 {
	t.c.LoadWords++
	return b.data[idx]
}

// Store writes one word to a device buffer (counted).
func (t *ThreadCtx) Store(b *Buffer, idx int, v float32) {
	t.c.StoreWords++
	b.data[idx] = v
}

// Arithmetic: each helper counts its FLOP cost. Mul/Add/Sub count 1;
// Sel (the predicated upwind select, lowered to a conditional move) counts 1,
// matching profiler conventions; Exp counts ExpFlopCost (the SFU's
// range-reduction + polynomial sequence as FLOP-equivalents).

// ExpFlopCost is the FLOP-equivalent cost of one expf on the device.
const ExpFlopCost = 6

// Mul returns a·b.
func (t *ThreadCtx) Mul(a, b float32) float32 { t.c.Flops++; return a * b }

// Add returns a+b.
func (t *ThreadCtx) Add(a, b float32) float32 { t.c.Flops++; return a + b }

// Sub returns a−b.
func (t *ThreadCtx) Sub(a, b float32) float32 { t.c.Flops++; return a - b }

// Sel returns a when cond > 0, else b (predicated select, 1 FLOP).
func (t *ThreadCtx) Sel(cond, a, b float32) float32 {
	t.c.Flops++
	if cond > 0 {
		return a
	}
	return b
}

// Exp returns expf(x).
func (t *ThreadCtx) Exp(x float32) float32 {
	t.c.Flops += ExpFlopCost
	t.c.ExpCalls++
	return float32(math.Exp(float64(x)))
}

// Kernel is a device function invoked once per thread.
type Kernel func(t *ThreadCtx)

// Launch executes kernel over grid×block threads. Blocks are distributed
// over a host worker pool (the SM analog); threads within a block run
// sequentially. Returns the launch's measured stats.
func (d *Device) Launch(grid, block Dim3, kernel Kernel) (*KernelStats, error) {
	if !grid.valid() || !block.valid() {
		return nil, fmt.Errorf("gpusim: invalid launch configuration grid=%+v block=%+v", grid, block)
	}
	if block.Count() > d.Spec.MaxThreadsPerBlock {
		return nil, fmt.Errorf("gpusim: block of %d threads exceeds the %d-thread limit",
			block.Count(), d.Spec.MaxThreadsPerBlock)
	}
	workers := d.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	nBlocks := grid.Count()
	if workers > nBlocks {
		workers = nBlocks
	}

	stats := &KernelStats{Grid: grid, Block: block, Blocks: uint64(nBlocks)}
	perWorker := make([]KernelStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := &perWorker[w]
			tc := ThreadCtx{BlockDim: block, GridDim: grid, c: local}
			for b := w; b < nBlocks; b += workers {
				bz := b / (grid.X * grid.Y)
				by := (b / grid.X) % grid.Y
				bx := b % grid.X
				tc.BlockIdx = Dim3{X: bx, Y: by, Z: bz}
				for tz := 0; tz < block.Z; tz++ {
					for ty := 0; ty < block.Y; ty++ {
						for tx := 0; tx < block.X; tx++ {
							tc.ThreadIdx = Dim3{X: tx, Y: ty, Z: tz}
							tc.active = true
							local.ThreadsLaunched++
							kernel(&tc)
							if tc.active {
								local.ThreadsActive++
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range perWorker {
		stats.ThreadsLaunched += perWorker[w].ThreadsLaunched
		stats.ThreadsActive += perWorker[w].ThreadsActive
		stats.Flops += perWorker[w].Flops
		stats.ExpCalls += perWorker[w].ExpCalls
		stats.LoadWords += perWorker[w].LoadWords
		stats.StoreWords += perWorker[w].StoreWords
	}
	return stats, nil
}
