// Package dsd models the vector execution of a wafer-scale processing
// element: a private float32 memory, Data Structure Descriptors (DSDs), and
// the small vector instruction set the paper's flux kernel uses
// (FMUL/FADD/FSUB/FNEG/FMA/FMOV, §5.3.3 and Table 4).
//
// A DSD describes a contiguous array view — base address and length — and a
// vector instruction streams its operands through the functional unit at
// constant throughput, which is how the hardware vectorizes without caches.
// Every op updates instruction, FLOP, memory-traffic and fabric-traffic
// counters; the Table 4 experiment and the roofline model read these counters
// rather than hardcoding the paper's numbers.
//
// Accounting conventions (§5.3.3, Table 4): per element, an op performs one
// load per source operand (scalar immediates included, matching Table 4's
// "2 loads" for FMUL) and one store. The upwind selection (SELGT) and the
// final flux assembly (ACC) are predicated/accumulating moves, tracked in a
// separate uncounted class exactly as Table 4 implies.
package dsd

import (
	"fmt"
	"sync"
	"weak"
)

// Desc is a Data Structure Descriptor: a contiguous view over a PE's memory.
// Every view the paper's mapping needs is one (§5.1: a PE keeps each field's
// whole Z column as one block of local memory), so a descriptor has no
// stride.
type Desc struct {
	Base int // word offset of element 0
	Len  int // number of elements
}

// At returns the word address of element i.
func (d Desc) At(i int) int { return d.Base + i }

// Slice returns the subview [off, off+n).
func (d Desc) Slice(off, n int) (Desc, error) {
	if off < 0 || n < 0 || off+n > d.Len {
		return Desc{}, fmt.Errorf("dsd: slice [%d,%d) out of descriptor length %d", off, off+n, d.Len)
	}
	return Desc{Base: d.Base + off, Len: n}, nil
}

// MustSlice is Slice for statically-correct offsets; it panics on error.
func (d Desc) MustSlice(off, n int) Desc {
	s, err := d.Slice(off, n)
	if err != nil {
		panic(err)
	}
	return s
}

// Shift returns the same-length view displaced by off elements; the caller
// guarantees the displaced view stays within its allocation (used for the
// z±1 vertical-neighbor views over padded columns).
func (d Desc) Shift(off int) Desc {
	return Desc{Base: d.Base + off, Len: d.Len}
}

// Memory is a PE's private local memory: a fixed budget of float32 words
// with a bump allocator. No block is ever freed — the paper's buffer reuse
// (§5.3.1) is a fixed layout of fewer scratch columns, not a runtime free
// list; only a whole arena's slab is recycled (Release) — so the break is the
// high-water mark Stats reports for the buffer-reuse ablation.
type Memory struct {
	words []float32 // the budget: Alloc enforces len(words)
	brk   int
	// slab is a sized arena's backing slab, held by its first memory until
	// Release hands it back.
	slab *slab
}

// slab owns the words of one sized arena; the free slot points at it weakly.
type slab struct{ words []float32 }

// released is the slab Release handed back last. Its pointer is weak: a slab
// no arena takes before the next collection is freed, so the slot keeps
// nothing resident.
var released struct {
	sync.Mutex
	slot weak.Pointer[slab]
}

// NewArena allocates n PE memories of words each, carved out of one
// contiguous slab, so an engine's working set is cache-contiguous and costs
// two allocations (words and headers) instead of several per PE. The slab
// is always fresh, zeroed exactly once by its allocation, and Release does
// not hand it back.
func NewArena(n, words int) ([]Memory, error) {
	return newArena(n, words, false)
}

// NewSizedArena is NewArena for a caller that sizes every memory to the
// layout it is about to allocate, so the slab holds no word the layout never
// reaches (and the memories do not sit a power-of-two-ish 48 KiB apart,
// aliasing each other's cache sets). The slab is the one Release handed back
// last when that one is still alive and of this length, taken as it was left
// (then only the headers are new), and a fresh one otherwise, so the words a
// memory starts with are unspecified: a layout writes every word it reads.
func NewSizedArena(n, words int) ([]Memory, error) {
	return newArena(n, words, true)
}

func newArena(n, words int, recycle bool) ([]Memory, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsd: arena must hold at least one memory, got %d", n)
	}
	if words <= 0 {
		return nil, fmt.Errorf("dsd: memory capacity must be positive, got %d", words)
	}
	mems := make([]Memory, n)
	var all []float32
	if recycle {
		mems[0].slab = takeSlab(n * words)
		all = mems[0].slab.words
	} else {
		all = make([]float32, n*words)
	}
	for i := range mems {
		w := i * words
		mems[i].words = all[w : w+words : w+words]
	}
	return mems, nil
}

// takeSlab takes the slab Release handed back last if it is still alive and
// holds the given number of words, and allocates a fresh one otherwise.
func takeSlab(words int) *slab {
	released.Lock()
	if s := released.slot.Value(); s != nil && len(s.words) == words {
		released.slot = weak.Pointer[slab]{}
		released.Unlock()
		return s
	}
	released.Unlock()
	return &slab{words: make([]float32, words)}
}

// Release hands the slab of the sized arena whose first memory m is back
// for the next NewSizedArena of the same length, in place of any slab
// released before it. No memory of the arena may be used afterwards; a
// second Release, or one on a NewArena arena, does nothing.
func (m *Memory) Release() {
	if m.slab == nil {
		return
	}
	released.Lock()
	released.slot = weak.Make(m.slab)
	released.Unlock()
	m.slab = nil
}

// Alloc reserves a contiguous block of n words, which hold whatever the
// arena's slab held (zero for NewArena, see NewSizedArena), and returns its
// descriptor.
func (m *Memory) Alloc(n int) (Desc, error) {
	if n <= 0 {
		return Desc{}, fmt.Errorf("dsd: allocation size must be positive, got %d", n)
	}
	if m.brk+n > len(m.words) {
		return Desc{}, fmt.Errorf("dsd: out of PE memory: need %d words, %d of %d used", n, m.brk, len(m.words))
	}
	base := m.brk
	m.brk += n
	return Desc{Base: base, Len: n}, nil
}

// Stats reports allocator behaviour for the memory-optimization ablation.
type Stats struct {
	HighWaterWords int
}

// Stats returns the allocator statistics.
func (m *Memory) Stats() Stats {
	return Stats{HighWaterWords: m.brk}
}

// Load reads element i of descriptor d (host/debug access, uncounted).
func (m *Memory) Load(d Desc, i int) float32 { return m.words[d.At(i)] }

// StoreHost writes element i of descriptor d (host/debug access, uncounted —
// the host runtime's memcpy analog).
func (m *Memory) StoreHost(d Desc, i int, v float32) { m.words[d.At(i)] = v }

// HostView returns the words of d as a slice aliasing the PE memory (host
// access, uncounted): the host loaders stream whole columns through it
// instead of paying a call per element. Its capacity is its length, so an
// append never writes past the column.
func (m *Memory) HostView(d Desc) []float32 {
	v := m.col(d)
	return v[:len(v):len(v)]
}

// col returns the words d views. It is every op's bounds check: a view
// reaching outside the memory (or a negative length) is a programming error
// in kernel construction, not a runtime condition, and panics. An empty
// descriptor is an empty column wherever it points.
func (m *Memory) col(d Desc) []float32 {
	if d.Len == 0 {
		return nil
	}
	if !m.holds(d) {
		badDesc(d, len(m.words))
	}
	return m.words[d.Base : d.Base+d.Len]
}

// holds reports whether d has a length ≥ 0 and all its words in the memory.
func (m *Memory) holds(d Desc) bool {
	return d.Len >= 0 && d.Base >= 0 && d.Base+d.Len <= len(m.words)
}

// badDesc panics with the diagnostic for a descriptor col rejects.
func badDesc(d Desc, words int) {
	if d.Len < 0 {
		panic(fmt.Sprintf("dsd: negative descriptor length %d", d.Len))
	}
	panic(fmt.Sprintf("dsd: descriptor {base %d len %d} out of memory bounds [0,%d)", d.Base, d.Len, words))
}

// sameLen2 is a fixed-arity length check — the variadic form cost a slice
// header and a loop on every op call in the hot path.
func lenMismatch(want, got int) {
	panic(fmt.Sprintf("dsd: descriptor length mismatch: %d vs %d", want, got))
}

func sameLen2(a, b Desc) {
	if b.Len != a.Len {
		lenMismatch(a.Len, b.Len)
	}
}
