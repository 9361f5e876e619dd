package umesh

import (
	"fmt"
	"runtime"

	"repro/internal/exec"
)

// This file is the compiled partition — the one decision both partitioned
// runtimes stand on: each part's cells renumbered owned-first with one
// contiguous halo block per source part, read straight off the Partition's
// halo list, every send derived from its receiver's block, and the worker
// pool the parts run on. PartEngine (engine.go, the float32 residual runtime)
// and PartOperator (operator.go, the float64 Krylov space) each add their own
// resident fields in this numbering and nothing else; neither knows how it
// was derived.
//
//   - compact local renumbering: a part's working set is its owned cells plus
//     its halo cells only (O(owned+halo)), never a global-sized array per
//     part;
//   - precompiled exchange plans with direct-write delivery: each send plan
//     carries the local owned indices to read and the base of the receiver's
//     halo block for this source, so a push (pushHalo) writes the planned
//     values straight into the neighbor's resident field — one coalesced
//     region per (src, dst) pair, no buffers or channels.
//
// A runtime's application is then a push step (only when some part exchanges
// data), the step barrier that orders the halo writes, and one sweep over
// every owned row.

// Layout is a partition compiled for one mesh. Compile it once; build a
// PartOperator (or, through NewPartEngine, a PartEngine) on it; Close stops
// its worker pool. Everything in it is read-only after CompileLayout.
type Layout struct {
	u     *Mesh
	part  *Partition
	pool  *exec.Pool
	parts []*partLayout
	// starts[me] is the number of cells owned by the parts before me — on a
	// canonical RCB partition, the canonical position of part me's first
	// cell, so compact index = canonical position − starts[me].
	starts []int32
	// exchanges records that some part sends or receives halo data: an
	// application then pushes the halo in a step of its own, whose barrier
	// orders the writes before any row reads them. A one-part layout runs
	// single-step.
	exchanges bool
}

// sendPlan is one precompiled outgoing transfer: the local owned indices to
// read and the base of the receiver's contiguous halo block for this source,
// whose cells they are in order. The destination ranges are disjoint between
// all senders and from every owned range, and the step barrier orders the
// writes before the receiver's rows read them.
type sendPlan struct {
	dst     int
	dstBase int
	idx     []int32
}

// partLayout is one part's compact numbering: owned cells first, then halo
// cells grouped by source part. Everything is sized O(owned+halo); no field
// scales with the global cell count.
type partLayout struct {
	nOwned, nHalo int
	globalOf      []int32 // local → global cell id
	rowStart      []int32 // CSR adjacency over owned cells, local indices
	nbrLocal      []int32
	nbrTrans      []float64
	sends         []sendPlan
}

// CompileLayout renumbers every part into its compact index space, derives
// the direct-write exchange plans and starts the worker pool (workers 0
// selects runtime.NumCPU(); the pool clamps it to the part count). The
// partition must come from RCB, which records the halo lists.
func CompileLayout(u *Mesh, p *Partition, workers int) (*Layout, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if len(p.Part) != u.NumCells {
		return nil, fmt.Errorf("umesh: partition covers %d cells, mesh has %d", len(p.Part), u.NumCells)
	}
	if p.halo == nil || len(p.halo) != p.NumParts || len(p.Owned) != p.NumParts {
		return nil, fmt.Errorf("umesh: partition of %d parts has %d owned and %d halo lists; build it with RCB",
			p.NumParts, len(p.Owned), len(p.halo))
	}
	if workers < 0 {
		return nil, fmt.Errorf("umesh: workers must be non-negative, got %d", workers)
	}
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	l := &Layout{u: u, part: p, parts: make([]*partLayout, p.NumParts), starts: make([]int32, p.NumParts+1)}
	// at[c] is c's index in its owner's Owned list, haloAt[c] its local
	// index in the part being compiled, when that part reads c as halo.
	at, haloAt := make([]int32, u.NumCells), make([]int32, u.NumCells)
	for me, owned := range p.Owned {
		l.parts[me] = &partLayout{nOwned: len(owned), nHalo: len(p.halo[me])}
		for i, c := range owned {
			at[c] = int32(i)
		}
	}
	for me, ps := range l.parts {
		if err := l.compilePart(me, at, haloAt); err != nil {
			return nil, err
		}
		l.starts[me+1] = l.starts[me] + int32(ps.nOwned)
		l.exchanges = l.exchanges || ps.nHalo > 0
	}
	l.pool = exec.NewPool(workers, p.NumParts)
	return l, nil
}

// Close stops the worker pool. Nothing built on the layout may run after.
func (l *Layout) Close() { l.pool.Stop() }

// compilePart renumbers part me — owned cells first, in Owned order, then
// its halo list — builds its rows over local indices, and appends to each
// source part the send plan that fills one of its halo blocks.
func (l *Layout) compilePart(me int, at, haloAt []int32) error {
	ps, owned, halo := l.parts[me], l.part.Owned[me], l.part.halo[me]
	ps.globalOf = make([]int32, 0, len(owned)+len(halo))
	for _, c := range owned {
		ps.globalOf = append(ps.globalOf, int32(c))
	}
	// One halo block per source part, in the list's order. Faces are
	// symmetric, so block src is exactly what part src sends to me: its plan
	// reads those cells at their owned indices and writes them from the
	// block's base on. Parts compile in ascending order, so every part's
	// sends ascend by destination.
	for i, c := range halo {
		src := l.part.Part[c]
		haloAt[c] = int32(len(ps.globalOf))
		if i == 0 || src != l.part.Part[halo[i-1]] {
			l.parts[src].sends = append(l.parts[src].sends, sendPlan{dst: me, dstBase: len(ps.globalOf)})
		}
		sp := &l.parts[src].sends[len(l.parts[src].sends)-1]
		sp.idx = append(sp.idx, at[c])
		ps.globalOf = append(ps.globalOf, c)
	}

	// CSR adjacency over local indices, preserving the exact per-cell
	// neighbor order of the serial cell-based sweep.
	ps.rowStart = make([]int32, ps.nOwned+1)
	for i, c := range owned {
		ps.rowStart[i+1] = ps.rowStart[i] + int32(l.u.Degree(c))
	}
	ps.nbrLocal = make([]int32, ps.rowStart[ps.nOwned])
	ps.nbrTrans = make([]float64, ps.rowStart[ps.nOwned])
	k := 0
	for _, c := range owned {
		nbrs, trans := l.u.halfFaces(c)
		for j, nb := range nbrs {
			li := at[nb]
			if l.part.Part[nb] != me {
				li = haloAt[nb]
			}
			// Only a partition built for another mesh misses a neighbor.
			if int(li) >= len(ps.globalOf) || ps.globalOf[li] != nb {
				return fmt.Errorf("umesh: part %d: neighbor %d of owned cell %d is neither owned nor in its halo list", me, nb, c)
			}
			ps.nbrLocal[k] = li
			ps.nbrTrans[k] = trans[j]
			k++
		}
	}
	return nil
}

// pushHalo is the halo exchange, written once for both runtimes: it writes
// the planned owned values of x — a part's resident copy of some field —
// straight into each neighbor's halo block of the same field (field resolves
// a part id to that part's copy): one coalesced write region per (src, dst)
// pair, no intermediate buffer. The regions are disjoint from every owned
// range and from each other, so the concurrent writes are race-free; the step
// barrier orders them before the receivers' row sweeps. It returns the
// values and the messages it moved, for the caller's CommCounters.
func pushHalo[T float32 | float64](sends []sendPlan, x []T, field func(part int) []T) (values, messages uint64) {
	for si := range sends {
		sp := &sends[si]
		dst := field(sp.dst)[sp.dstBase:][:len(sp.idx)]
		for j, li := range sp.idx {
			dst[j] = x[li]
		}
		values += uint64(len(sp.idx))
	}
	return values, uint64(len(sends))
}
