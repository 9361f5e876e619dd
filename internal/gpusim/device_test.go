package gpusim

import (
	"math"
	"testing"
)

// Len returns the buffer length in words.
func (b *Buffer) Len() int { return len(b.data) }

// copyCounter wraps a device's copies and counts the bytes each direction
// moved, as a profiler would.
type copyCounter struct {
	*Device
	h2d, d2h uint64
}

func (c *copyCounter) CopyToDevice(dst *Buffer, src []float32) error {
	err := c.Device.CopyToDevice(dst, src)
	if err == nil {
		c.h2d += uint64(4 * len(src))
	}
	return err
}

func (c *copyCounter) CopyToHost(src *Buffer) []float32 {
	out := c.Device.CopyToHost(src)
	c.d2h += uint64(4 * len(out))
	return out
}

func TestA100Spec(t *testing.T) {
	s := A100()
	if s.WarpSize != 32 || s.MaxThreadsPerBlock != 1024 {
		t.Errorf("A100 core spec wrong: %+v", s)
	}
	if s.MemBytes != 40*1024*1024*1024 {
		t.Errorf("A100 memory = %d, want 40 GiB (§7.1)", s.MemBytes)
	}
	if s.PowerWatts != 250 {
		t.Errorf("A100 power = %g, want 250 W (§7.2)", s.PowerWatts)
	}
}

func TestMallocAccounting(t *testing.T) {
	d := NewDevice(A100())
	b, err := d.Malloc("a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1000 {
		t.Errorf("allocation bookkeeping wrong: len=%d", b.Len())
	}
	if _, err := d.Malloc("zero", 0); err == nil {
		t.Error("zero allocation accepted")
	}
}

func TestMallocOutOfMemory(t *testing.T) {
	spec := A100()
	spec.MemBytes = 4000
	d := NewDevice(spec)
	if _, err := d.Malloc("big", 1001); err == nil {
		t.Error("over-allocation accepted")
	}
	if _, err := d.Malloc("fits", 1000); err != nil {
		t.Errorf("exact-fit allocation rejected: %v", err)
	}
	if _, err := d.Malloc("one-more", 1); err == nil {
		t.Error("allocation beyond capacity accepted")
	}
}

func TestMemcpyRoundTrip(t *testing.T) {
	d := &copyCounter{Device: NewDevice(A100())}
	b, _ := d.Malloc("x", 4)
	if err := d.CopyToDevice(b, []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got := d.CopyToHost(b)
	for i, want := range []float32{1, 2, 3, 4} {
		if got[i] != want {
			t.Fatalf("readback[%d] = %g", i, got[i])
		}
	}
	if d.h2d != 16 || d.d2h != 16 {
		t.Errorf("memcpy counters %d/%d", d.h2d, d.d2h)
	}
	if err := d.CopyToDevice(b, []float32{1}); err == nil {
		t.Error("length-mismatched H2D accepted")
	}
}

func TestLaunchValidation(t *testing.T) {
	d := NewDevice(A100())
	if _, err := d.Launch(Dim3{0, 1, 1}, Dim3{1, 1, 1}, func(*ThreadCtx) {}); err == nil {
		t.Error("zero grid accepted")
	}
	if _, err := d.Launch(Dim3{1, 1, 1}, Dim3{32, 32, 2}, func(*ThreadCtx) {}); err == nil {
		t.Error("2048-thread block accepted (limit is 1024, §6)")
	}
}

func TestLaunchCoversAllThreads(t *testing.T) {
	d := NewDevice(A100())
	buf, _ := d.Malloc("out", 4*3*2*2*2*2)
	grid := Dim3{X: 4, Y: 3, Z: 2}
	block := Dim3{X: 2, Y: 2, Z: 2}
	st, err := d.Launch(grid, block, func(tc *ThreadCtx) {
		gx := tc.BlockIdx.X*tc.BlockDim.X + tc.ThreadIdx.X
		gy := tc.BlockIdx.Y*tc.BlockDim.Y + tc.ThreadIdx.Y
		gz := tc.BlockIdx.Z*tc.BlockDim.Z + tc.ThreadIdx.Z
		nx := grid.X * block.X
		ny := grid.Y * block.Y
		idx := (gz*ny+gy)*nx + gx
		tc.Store(buf, idx, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(grid.Count() * block.Count())
	if st.ThreadsLaunched != want || st.ThreadsActive != want {
		t.Errorf("threads launched/active = %d/%d, want %d", st.ThreadsLaunched, st.ThreadsActive, want)
	}
	out := d.CopyToHost(buf)
	for i, v := range out {
		if v != 1 {
			t.Fatalf("thread for index %d never ran", i)
		}
	}
	if st.StoreWords != want {
		t.Errorf("stores = %d, want %d", st.StoreWords, want)
	}
	if st.Blocks != uint64(grid.Count()) {
		t.Errorf("blocks = %d, want %d", st.Blocks, grid.Count())
	}
}

func TestEarlyReturnCountsInactive(t *testing.T) {
	d := NewDevice(A100())
	st, err := d.Launch(Dim3{1, 1, 1}, Dim3{8, 1, 1}, func(tc *ThreadCtx) {
		if tc.ThreadIdx.X >= 5 {
			tc.Return()
			return
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ThreadsLaunched != 8 || st.ThreadsActive != 5 {
		t.Errorf("launched/active = %d/%d, want 8/5", st.ThreadsLaunched, st.ThreadsActive)
	}
}

func TestArithmeticCounting(t *testing.T) {
	d := NewDevice(A100())
	st, err := d.Launch(Dim3{1, 1, 1}, Dim3{1, 1, 1}, func(tc *ThreadCtx) {
		v := tc.Mul(2, 3)   // 1
		v = tc.Add(v, 1)    // 1
		v = tc.Sub(v, 2)    // 1
		v = tc.Sel(v, 1, 0) // 1
		v = tc.Exp(v)       // ExpFlopCost
		_ = v
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(4 + ExpFlopCost)
	if st.Flops != want {
		t.Errorf("flops = %d, want %d", st.Flops, want)
	}
	if st.ExpCalls != 1 {
		t.Errorf("exp calls = %d, want 1", st.ExpCalls)
	}
}

func TestArithmeticSemantics(t *testing.T) {
	d := NewDevice(A100())
	var got [5]float32
	_, err := d.Launch(Dim3{1, 1, 1}, Dim3{1, 1, 1}, func(tc *ThreadCtx) {
		got[0] = tc.Mul(3, 4)
		got[1] = tc.Add(3, 4)
		got[2] = tc.Sub(3, 4)
		got[3] = tc.Sel(-1, 10, 20)
		got[4] = tc.Exp(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 12 || got[1] != 7 || got[2] != -1 || got[3] != 20 {
		t.Errorf("arithmetic wrong: %v", got)
	}
	if math.Abs(float64(got[4])-math.E) > 1e-6 {
		t.Errorf("exp(1) = %g", got[4])
	}
}

func TestSelZeroTakesElse(t *testing.T) {
	d := NewDevice(A100())
	var got float32
	d.Launch(Dim3{1, 1, 1}, Dim3{1, 1, 1}, func(tc *ThreadCtx) {
		got = tc.Sel(0, 10, 20)
	})
	if got != 20 {
		t.Errorf("Sel(0,...) = %g, want the else branch (Eq. 4 'otherwise')", got)
	}
}

func TestOccupancyModel(t *testing.T) {
	d := NewDevice(A100())
	occ := d.OccupancyFor(Dim3{X: 16, Y: 8, Z: 8})
	// 1024-thread blocks = 32 warps; 1 resident block → 32/64 = 50 %
	// theoretical; 48.11 % and 30.79 warps achieved (§7.2).
	if w := occ.TheoreticalFraction * float64(d.Spec.MaxWarpsPerSM); w != 32 {
		t.Errorf("theoretical warps = %g, want 32", w)
	}
	if occ.TheoreticalFraction != 0.5 {
		t.Errorf("theoretical occupancy = %g, want 0.5", occ.TheoreticalFraction)
	}
	if math.Abs(occ.AchievedWarpsPerSM-30.79) > 0.01 {
		t.Errorf("achieved warps = %.2f, want 30.79", occ.AchievedWarpsPerSM)
	}
	if math.Abs(occ.AchievedFraction-0.4811) > 0.0001 {
		t.Errorf("achieved occupancy = %.4f, want 0.4811", occ.AchievedFraction)
	}
}

func TestKernelStatsHelpers(t *testing.T) {
	st := KernelStats{Flops: 280, LoadWords: 32, StoreWords: 1}
	if st.Bytes() != 132 {
		t.Errorf("bytes = %d, want 132", st.Bytes())
	}
	// FLOPs per byte of word-level traffic, the quantity Fig. 8 (bottom)
	// plots (paper: 2.11).
	if ai := float64(st.Flops) / float64(st.Bytes()); math.Abs(ai-2.1212) > 0.001 {
		t.Errorf("AI = %g, want ~2.12", ai)
	}
	sum := KernelStats{}
	sum.Add(&st)
	sum.Add(&st)
	if sum.Flops != 560 || sum.LoadWords != 64 {
		t.Errorf("Add wrong: %+v", sum)
	}
}

func TestBufferMutate(t *testing.T) {
	d := &copyCounter{Device: NewDevice(A100())}
	b, _ := d.Malloc("x", 3)
	d.CopyToDevice(b, []float32{1, 2, 3})
	h2d := d.h2d
	b.Mutate(func(data []float32) {
		for i := range data {
			data[i] *= 10
		}
	})
	if d.h2d != h2d {
		t.Error("Mutate counted as H2D traffic")
	}
	if got := d.CopyToHost(b); got[2] != 30 {
		t.Errorf("mutate lost: %v", got)
	}
}
