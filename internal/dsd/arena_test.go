package dsd

import (
	"strings"
	"testing"
)

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

func TestHostViewAliasesColumns(t *testing.T) {
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
		"out of bounds":   {Base: 30, Len: 4},
		"negative length": {Base: 0, Len: -1},
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
