package dsd

import (
	"strings"
	"testing"
)

// opSequence drives every vector op once over the given descriptors; the
// fast-path identity test runs it twice — stride-1 specializations on and
// off — and asserts bit-identical memories and exactly equal counters.
func opSequence(e *Engine, dst, a, b, c Desc) {
	e.MulVV(dst, a, b)
	e.MulVS(dst, dst, 1.5)
	e.AddVV(dst, dst, c)
	e.SubVV(dst, dst, a)
	e.SubVS(dst, dst, 0.25)
	e.NegV(dst, dst)
	e.FmaVSS(dst, dst, 2, -1)
	e.FmaVVV(dst, a, b, dst)
	e.SelGtV(dst, c, a, b)
	e.AccV(dst, a)
	e.Fill(c, 3)
	e.MovV(c, dst)
	e.MovRecv(dst, []float32{9, 8, 7, 6, 5, 4, 3, 2}[:dst.Len])
}

func fixtureEngine(t *testing.T) (*Engine, Desc, Desc, Desc, Desc) {
	t.Helper()
	m := newMem(t, 256)
	e := NewEngine(m)
	alloc := func(n int) Desc {
		d, err := m.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, c, dst := alloc(8), alloc(8), alloc(8), alloc(8)
	for i := 0; i < 8; i++ {
		m.StoreHost(a, i, float32(i)-3.5)
		m.StoreHost(b, i, float32(i*i)*0.75)
		m.StoreHost(c, i, float32(5-i))
	}
	return e, dst, a, b, c
}

func TestFastPathMatchesStridedUnitDescriptors(t *testing.T) {
	eFast, dstF, aF, bF, cF := fixtureEngine(t)
	eSlow, dstS, aS, bS, cS := fixtureEngine(t)

	prev := SetFastPath(true)
	opSequence(eFast, dstF, aF, bF, cF)
	SetFastPath(false)
	opSequence(eSlow, dstS, aS, bS, cS)
	SetFastPath(prev)

	for i := 0; i < eFast.Mem.Capacity(); i++ {
		f := eFast.Mem.words[i]
		s := eSlow.Mem.words[i]
		if f != s {
			t.Fatalf("word %d diverged: fast %g, strided %g", i, f, s)
		}
	}
	if fc, sc := eFast.Counters(), eSlow.Counters(); fc != sc {
		t.Fatalf("counters diverged:\nfast    %+v\nstrided %+v", fc, sc)
	}
}

func TestFastPathStridedDescriptorsFallBack(t *testing.T) {
	// A non-unit-stride operand must produce the same result with the fast
	// path enabled (fallback loop) as with it disabled.
	build := func() (*Engine, Desc, Desc) {
		m := newMem(t, 64)
		e := NewEngine(m)
		blk, err := m.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			m.StoreHost(blk, i, float32(i+1))
		}
		strided := Desc{Base: blk.Base, Len: 8, Stride: 2}
		dst, err := m.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		return e, dst, strided
	}

	eFast, dstF, strF := build()
	eSlow, dstS, strS := build()
	prev := SetFastPath(true)
	eFast.MulVS(dstF, strF, 3)
	eFast.AccV(dstF, strF)
	SetFastPath(false)
	eSlow.MulVS(dstS, strS, 3)
	eSlow.AccV(dstS, strS)
	SetFastPath(prev)

	for i := 0; i < 8; i++ {
		if f, s := eFast.Mem.Load(dstF, i), eSlow.Mem.Load(dstS, i); f != s {
			t.Fatalf("dst[%d] diverged: fast %g, strided %g", i, f, s)
		}
		want := float32(2*i+1) * 4 // 3x + x over the odd sequence 1,3,5,...
		if got := eFast.Mem.Load(dstF, i); got != want {
			t.Fatalf("dst[%d] = %g, want %g", i, got, want)
		}
	}
	if fc, sc := eFast.Counters(), eSlow.Counters(); fc != sc {
		t.Fatalf("counters diverged:\nfast    %+v\nstrided %+v", fc, sc)
	}
}

func TestCountersFoldMatchesManualAccounting(t *testing.T) {
	// Spot-check the deferred tally fold against the documented per-op
	// accounting on a mixed sequence.
	e, dst, a, b, c := fixtureEngine(t)
	opSequence(e, dst, a, b, c)
	got := e.Counters()

	// opSequence: 1 MulVV + 1 MulVS (FMUL), 1 AddVV, 2 FSUB, 1 FNEG, 2 FMA,
	// 1 SELGT, 1 ACC, 1 FILL, 1 MOV, 1 FMOV — 8 elements each.
	want := Counters{
		FMUL: 16, FADD: 8, FSUB: 16, FNEG: 8, FMA: 16, FMOV: 8,
		SELGT: 8, ACC: 8, FILL: 8, MEMMOV: 8,
		Loads:           2*16 + 2*8 + 2*16 + 8 + 3*16,
		Stores:          16 + 8 + 16 + 8 + 16 + 8,
		FabricLoads:     8,
		UncountedLoads:  3*8 + 2*8 + 8,
		UncountedStores: 8 + 8 + 8 + 8,
		Issues:          13,
	}
	if got != want {
		t.Fatalf("folded counters:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestNewArena(t *testing.T) {
	const n, capacity = 3, 64
	mems, err := NewArena(n, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if len(mems) != n {
		t.Fatalf("arena holds %d memories, want %d", len(mems), n)
	}
	// Stale words are never observable: dirty every word of every memory
	// through a full-capacity block, free it, and allocate again.
	for i := range mems {
		m := &mems[i]
		if m.Capacity() != capacity {
			t.Fatalf("memory %d capacity = %d, want %d", i, m.Capacity(), capacity)
		}
		d, err := m.Alloc(capacity)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < capacity; j++ {
			if v := m.Load(d, j); v != 0 {
				t.Fatalf("memory %d: fresh word %d = %g, want 0", i, j, v)
			}
			m.StoreHost(d, j, 42)
		}
		if _, err := m.Alloc(1); err == nil {
			t.Fatalf("memory %d allocated past its capacity into its neighbor", i)
		}
		if err := m.Free(d); err != nil {
			t.Fatal(err)
		}
		d, err = m.Alloc(capacity)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < capacity; j++ {
			if v := m.Load(d, j); v != 0 {
				t.Fatalf("memory %d: reused word %d = %g, want 0", i, j, v)
			}
		}
		m.StoreHost(d, capacity-1, float32(i+1))
	}
	// The memories are disjoint views: each kept its own last word.
	for i := range mems {
		if v := mems[i].words[capacity-1]; v != float32(i+1) {
			t.Errorf("memory %d last word = %g, want %d", i, v, i+1)
		}
	}
	for _, bad := range [][2]int{{0, 64}, {-1, 64}, {4, 0}, {4, -8}} {
		if _, err := NewArena(bad[0], bad[1]); err == nil {
			t.Errorf("NewArena(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

func TestSizedArenaBacksOnlyTheFootprint(t *testing.T) {
	const n, capacity, footprint = 3, 64, 40
	mems, err := NewSizedArena(n, capacity, footprint)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mems {
		m := &mems[i]
		if m.Capacity() != capacity || m.Stats().CapacityWords != capacity {
			t.Fatalf("memory %d reports capacity %d / %d, want the budget %d", i, m.Capacity(), m.Stats().CapacityWords, capacity)
		}
		if len(m.words) != footprint {
			t.Fatalf("memory %d backs %d words, want the footprint %d", i, len(m.words), footprint)
		}
		d, err := m.Alloc(footprint)
		if err != nil {
			t.Fatal(err)
		}
		view := m.HostView(d)
		view[footprint-1] = float32(i + 1)
		if _, err := m.Alloc(1); err == nil || !strings.Contains(err.Error(), "footprint") {
			t.Fatalf("memory %d: allocation past the backed words: err = %v", i, err)
		}
	}
	for i := range mems { // disjoint: each kept its own last word
		if v := mems[i].words[footprint-1]; v != float32(i+1) {
			t.Errorf("memory %d last word = %g, want %d", i, v, i+1)
		}
	}
	// A footprint over the budget is an out-of-memory error at the budget,
	// exactly as in a fully backed memory.
	mems, err = NewSizedArena(1, 16, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mems[0].Alloc(17); err == nil || !strings.Contains(err.Error(), "out of PE memory: need 17 words, 0 of 16 used") {
		t.Fatalf("over-budget allocation: err = %v", err)
	}
	if _, err := NewSizedArena(1, 16, 0); err == nil {
		t.Error("NewSizedArena accepted an empty footprint")
	}
}

func TestHostViewAliasesUnitStrideColumns(t *testing.T) {
	m := newMem(t, 32)
	blk, err := m.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	view := m.HostView(blk.MustSlice(4, 8))
	if len(view) != 8 || cap(view) != 8 {
		t.Fatalf("view has len %d cap %d, want 8 and 8", len(view), cap(view))
	}
	view[0] = 7
	if got := m.Load(blk, 4); got != 7 {
		t.Fatalf("a write through the view did not reach the memory: word = %g", got)
	}
	for name, bad := range map[string]Desc{
		"strided":       {Base: blk.Base, Len: 4, Stride: 2},
		"out of bounds": {Base: 30, Len: 4, Stride: 1},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "dsd: ") {
					t.Errorf("HostView of a %s descriptor: panic = %q, want a dsd: panic", name, msg)
				}
			}()
			m.HostView(bad)
		}()
	}
}

func TestArenaAllocationsDoNotScaleWithMemories(t *testing.T) {
	// The engines' setup: one arena, then a PE-like layout in every memory
	// (two padded columns, then dozens of equal columns). Words, headers and
	// span records are the only allocations, however many memories there are.
	const pes, nz = 64, 8
	allocs := testing.AllocsPerRun(10, func() {
		mems, err := NewArena(pes, 64*nz)
		if err != nil {
			t.Fatal(err)
		}
		for i := range mems {
			for k := 0; k < 44; k++ {
				n := nz
				if k < 2 {
					n = nz + 2 // the padded own columns come first
				}
				if _, err := mems[i].Alloc(n); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 3 {
		t.Errorf("arena of %d memories cost %.0f allocations, want 3", pes, allocs)
	}
}

func TestReadInto(t *testing.T) {
	m := newMem(t, 64)
	blk, err := m.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		m.StoreHost(blk, i, float32(i))
	}
	dst := make([]float32, 16)
	m.ReadInto(dst, blk)
	for i, v := range dst {
		if v != float32(i) {
			t.Fatalf("unit-stride ReadInto[%d] = %g", i, v)
		}
	}
	strided := Desc{Base: blk.Base, Len: 8, Stride: 2}
	sdst := make([]float32, 8)
	m.ReadInto(sdst, strided)
	for i, v := range sdst {
		if v != float32(2*i) {
			t.Fatalf("strided ReadInto[%d] = %g", i, v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ReadInto length mismatch did not panic")
		}
	}()
	m.ReadInto(make([]float32, 3), blk)
}
