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
// Accounting conventions (DESIGN.md §2): per element, an op performs one load
// per source operand (scalar immediates included, matching Table 4's
// "2 loads" for FMUL) and one store. The upwind selection (SELGT) and the
// final flux assembly (ACC) are predicated/accumulating moves, tracked in a
// separate uncounted class exactly as Table 4 implies.
package dsd

import (
	"fmt"
	"slices"
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

// Memory is a PE's private local memory: a fixed budget of float32 words with
// a bump allocator and an explicit free list. The free list exists because
// the paper's key memory optimization is hand-crafted buffer reuse (§5.3.1);
// Stats exposes the high-water mark so the buffer-reuse ablation can compare
// peak footprints.
type Memory struct {
	words []float32
	// capacity is the budget Alloc enforces and Stats reports; words may be
	// shorter when the arena was sized to a known footprint (NewSizedArena).
	capacity int
	brk      int
	high     int
	reused   int
	allocs   int
	// spans records the bump allocator's block layout (for Free validation)
	// as runs of equal-length blocks: a PE's dozens of Nz-word columns are
	// one span, so recording an allocation is a counter increment.
	spans []span
	free  map[int][]int // length → bases of freed blocks; created by the first Free
}

// span is a run of count blocks of blockLen words each that the bump
// allocator laid out back to back from base.
type span struct {
	base, blockLen, count int
}

// NewMemory allocates a PE memory of capacity words. The WSE-2's 48 KiB per
// PE corresponds to 12288 words.
func NewMemory(capacityWords int) (*Memory, error) {
	mems, err := NewArena(1, capacityWords)
	if err != nil {
		return nil, err
	}
	return &mems[0], nil
}

// arenaSpans is the span capacity NewArena reserves per memory; a memory that
// needs more grows its own list.
const arenaSpans = 4

// NewArena allocates n PE memories of capacityWords each, carved out of one
// contiguous slab, so an engine's working set is cache-contiguous and costs
// three allocations (words, headers, span records) instead of several per PE.
// The slab is zeroed exactly once, by its allocation — Alloc relies on fresh
// words being zero.
func NewArena(n, capacityWords int) ([]Memory, error) {
	return NewSizedArena(n, capacityWords, capacityWords)
}

// NewSizedArena is NewArena for a caller that knows the exact footprint of
// the layout it is about to allocate: every memory enforces and reports
// capacityWords, but only min(capacityWords, footprintWords) words of it are
// backed, so the slab holds no word the layout never reaches (and the
// memories do not sit a power-of-two-ish 48 KiB apart, aliasing each other's
// cache sets). A footprint over the capacity fails in Alloc with the usual
// out-of-memory error; one that understates the layout fails there too.
func NewSizedArena(n, capacityWords, footprintWords int) ([]Memory, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsd: arena must hold at least one memory, got %d", n)
	}
	if capacityWords <= 0 {
		return nil, fmt.Errorf("dsd: memory capacity must be positive, got %d", capacityWords)
	}
	if footprintWords <= 0 {
		return nil, fmt.Errorf("dsd: arena footprint must be positive, got %d", footprintWords)
	}
	backed := min(capacityWords, footprintWords)
	slab := make([]float32, n*backed)
	spans := make([]span, n*arenaSpans)
	mems := make([]Memory, n)
	for i := range mems {
		w, s := i*backed, i*arenaSpans
		mems[i].words = slab[w : w+backed : w+backed]
		mems[i].capacity = capacityWords
		mems[i].spans = spans[s : s : s+arenaSpans]
	}
	return mems, nil
}

// Capacity returns the memory size in words.
func (m *Memory) Capacity() int { return m.capacity }

// Alloc reserves a contiguous block of n words and returns its descriptor.
// Freed blocks of the same length are reused first.
func (m *Memory) Alloc(n int) (Desc, error) {
	if n <= 0 {
		return Desc{}, fmt.Errorf("dsd: allocation size must be positive, got %d", n)
	}
	if bases := m.free[n]; len(bases) > 0 {
		base := bases[len(bases)-1]
		m.free[n] = bases[:len(bases)-1]
		m.reused++
		m.allocs++
		clear(m.words[base : base+n])
		return Desc{Base: base, Len: n}, nil
	}
	if m.brk+n > m.capacity {
		return Desc{}, fmt.Errorf("dsd: out of PE memory: need %d words, %d of %d used", n, m.brk, m.capacity)
	}
	if m.brk+n > len(m.words) {
		return Desc{}, fmt.Errorf("dsd: allocation of %d words at %d runs past the %d-word footprint this arena backs", n, m.brk, len(m.words))
	}
	base := m.brk
	m.brk += n
	if m.brk > m.high {
		m.high = m.brk
	}
	m.allocs++
	if k := len(m.spans) - 1; k >= 0 && m.spans[k].blockLen == n {
		m.spans[k].count++
	} else {
		m.spans = append(m.spans, span{base: base, blockLen: n, count: 1})
	}
	return Desc{Base: base, Len: n}, nil
}

// isBlock reports whether d is exactly a block the bump allocator laid out.
func (m *Memory) isBlock(d Desc) bool {
	for _, s := range m.spans {
		if off := d.Base - s.base; off >= 0 && off < s.blockLen*s.count {
			return d.Len == s.blockLen && off%s.blockLen == 0
		}
	}
	return false
}

// Free returns d's block to the free list for reuse. The descriptor must be
// exactly as returned by Alloc.
func (m *Memory) Free(d Desc) error {
	if !m.isBlock(d) || slices.Contains(m.free[d.Len], d.Base) {
		return fmt.Errorf("dsd: Free of non-allocated or reshaped block {base %d len %d}", d.Base, d.Len)
	}
	if m.free == nil {
		m.free = make(map[int][]int)
	}
	m.free[d.Len] = append(m.free[d.Len], d.Base)
	return nil
}

// Stats reports allocator behaviour for the memory-optimization ablation.
type Stats struct {
	CapacityWords  int
	HighWaterWords int
	Allocs         int
	ReusedAllocs   int
}

// Stats returns the allocator statistics.
func (m *Memory) Stats() Stats {
	return Stats{
		CapacityWords:  m.capacity,
		HighWaterWords: m.high,
		Allocs:         m.allocs,
		ReusedAllocs:   m.reused,
	}
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

// WriteAll copies src into descriptor d (host load). Lengths must match.
func (m *Memory) WriteAll(d Desc, src []float32) error {
	if len(src) != d.Len {
		return fmt.Errorf("dsd: WriteAll length %d != descriptor length %d", len(src), d.Len)
	}
	copy(m.col(d), src)
	return nil
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

// sameLen2/3/4 are fixed-arity length checks — the variadic form cost a
// slice header and a loop on every op call in the hot path.
func lenMismatch(want, got int) {
	panic(fmt.Sprintf("dsd: descriptor length mismatch: %d vs %d", want, got))
}

func sameLen2(a, b Desc) {
	if b.Len != a.Len {
		lenMismatch(a.Len, b.Len)
	}
}

func sameLen3(a, b, c Desc) {
	if b.Len != a.Len {
		lenMismatch(a.Len, b.Len)
	}
	if c.Len != a.Len {
		lenMismatch(a.Len, c.Len)
	}
}

func sameLen4(a, b, c, d Desc) {
	sameLen3(a, b, c)
	if d.Len != a.Len {
		lenMismatch(a.Len, d.Len)
	}
}
