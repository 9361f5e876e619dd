package dsd

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
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
	// Every word is fresh: allocate a full-capacity block in each memory,
	// check it reads zero and dirty it.
	for i := range mems {
		m := &mems[i]
		if m.Stats().CapacityWords != capacity {
			t.Fatalf("memory %d capacity = %d, want %d", i, m.Stats().CapacityWords, capacity)
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
		if m.Stats().CapacityWords != capacity {
			t.Fatalf("memory %d reports capacity %d, want the budget %d", i, m.Stats().CapacityWords, capacity)
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
	// (two padded columns, then dozens of equal columns). A NewArena costs
	// its words and headers, however many memories there are; a sized arena
	// that takes the slab released before it costs the headers alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const pes, nz = 64, 8
	for _, tc := range []struct {
		sized bool
		want  float64
	}{{false, 2}, {true, 1}} {
		allocs := testing.AllocsPerRun(10, func() {
			newArena := NewArena
			if tc.sized {
				newArena = func(n, c int) ([]Memory, error) { return NewSizedArena(n, c, c) }
			}
			mems, err := newArena(pes, 64*nz)
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
			mems[0].Release()
		})
		if allocs != tc.want {
			t.Errorf("arena of %d memories (sized and released after use: %v) cost %.0f allocations, want %.0f", pes, tc.sized, allocs, tc.want)
		}
	}
}

// slabOf is the identity of the slab an arena was carved from: its first word.
func slabOf(mems []Memory) *float32 { return &mems[0].words[0] }

// poisonedArena is a sized arena of n memories whose footprint words are all
// NaN, released.
func poisonedArena(t *testing.T, n, capacity, footprint int) []Memory {
	t.Helper()
	mems, err := NewSizedArena(n, capacity, footprint)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mems {
		d, err := mems[i].Alloc(footprint)
		if err != nil {
			t.Fatal(err)
		}
		for j := range mems[i].HostView(d) {
			mems[i].StoreHost(d, j, float32(math.NaN()))
		}
	}
	mems[0].Release()
	return mems
}

// TestReleasedSlabIsTakenAsItWas: a sized arena of the released length takes
// the released slab with its words as they were left, and starts every
// memory at a break of 0; an arena of another length does not take it, and a
// second Release of the same arena hands the slab back once.
func TestReleasedSlabIsTakenAsItWas(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, capacity, footprint = 3, 64, 37
	mems := poisonedArena(t, n, capacity, footprint)
	mems[0].Release()
	other, err := NewSizedArena(n, capacity, footprint+1)
	if err != nil {
		t.Fatal(err)
	}
	if slabOf(other) == slabOf(mems) {
		t.Fatal("an arena of another length took the released slab")
	}
	again, err := NewSizedArena(n, capacity, footprint)
	if err != nil {
		t.Fatal(err)
	}
	if slabOf(again) != slabOf(mems) {
		t.Fatal("an arena of the released length did not take the released slab")
	}
	for i := range again {
		if again[i].Stats().HighWaterWords != 0 {
			t.Fatalf("memory %d of the taken slab starts at break %d, want 0", i, again[i].Stats().HighWaterWords)
		}
		d, err := again[i].Alloc(footprint)
		if err != nil {
			t.Fatal(err)
		}
		if v := again[i].Load(d, footprint-1); !math.IsNaN(float64(v)) {
			t.Fatalf("memory %d: the taken slab was cleared (last word %g)", i, v)
		}
	}
	third, err := NewSizedArena(n, capacity, footprint)
	if err != nil {
		t.Fatal(err)
	}
	if slabOf(third) == slabOf(mems) {
		t.Fatal("an arena released twice was handed out twice")
	}
}

// TestNewArenaIsAlwaysFresh: NewArena (the fabric's full-budget arena) never
// takes a released slab, even one of its exact length, and Release of its
// memories hands nothing back.
func TestNewArenaIsAlwaysFresh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, capacity = 4, 48
	sized := poisonedArena(t, n, capacity, capacity)
	fresh, err := NewArena(n, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if slabOf(fresh) == slabOf(sized) {
		t.Fatal("NewArena took a released slab")
	}
	for i, w := range fresh[0].words[:cap(fresh[0].words)] {
		if w != 0 {
			t.Fatalf("NewArena word %d = %g, want 0", i, w)
		}
	}
	fresh[0].Release()
	next, err := NewSizedArena(n, capacity, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if slabOf(next) != slabOf(sized) {
		t.Fatal("Release of a NewArena arena displaced the sized arena's released slab")
	}
}

// TestReleasedSlabDoesNotOutliveACollection: the slot points at a slab
// weakly, so after a collection the next arena of its length is fresh and
// zero, even while the released memories are still reachable.
func TestReleasedSlabDoesNotOutliveACollection(t *testing.T) {
	const n, capacity = 2, 53
	mems, err := NewSizedArena(n, capacity, capacity)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mems[0].Alloc(capacity)
	if err != nil {
		t.Fatal(err)
	}
	mems[0].StoreHost(d, 0, 1)
	mems[0].Release()
	runtime.GC()
	fresh, err := NewSizedArena(n, capacity, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if slabOf(fresh) == slabOf(mems) || fresh[0].words[0] != 0 {
		t.Fatal("a released slab outlived a collection in the slot")
	}
}

// TestFreeSlotUnderConcurrentUse takes and releases sized arenas of two
// lengths from several goroutines at once (the bands of an engine compile
// concurrently); under -race this checks the slot's locking, and no two
// arenas alive at once may share a slab.
func TestFreeSlotUnderConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	live := map[*float32]bool{}
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				mems, err := NewSizedArena(2+(g+i)%2, 29, 29)
				if err != nil {
					t.Error(err)
					return
				}
				id := slabOf(mems)
				mu.Lock()
				if live[id] {
					t.Error("two live arenas share a slab")
				}
				live[id] = true
				mu.Unlock()
				mems[0].words[0] = float32(g)
				mu.Lock()
				delete(live, id)
				mu.Unlock()
				mems[0].Release()
			}
		}()
	}
	wg.Wait()
}
