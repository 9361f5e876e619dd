package umesh

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/exec"
)

// This file is the compiled partition — the one decision both partitioned
// runtimes stand on: each part's cells renumbered owned-first with one
// contiguous halo block per source part, the Partition's exchange plans
// flattened into direct-write index arrays, and the worker pool the parts run
// on. PartEngine (engine.go, the float32 residual runtime) and PartOperator
// (operator.go, the float64 Krylov space) each add their own resident fields
// in this numbering and nothing else; neither knows how it was derived.
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
// read and the base of the receiver's contiguous halo block for this source.
// The destination ranges are disjoint between all senders and from every
// owned range, and the step barrier orders the writes before the receiver's
// rows read them.
type sendPlan struct {
	dst     int
	dstBase int
	idx     []int32
}

// recvSlot is one precompiled incoming transfer: halo cells are renumbered
// so each source part's cells occupy one contiguous local range. The slots
// define the halo layout senders resolve their dstBase against.
type recvSlot struct {
	src     int
	base, n int
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
	recvs         []recvSlot
}

// CompileLayout renumbers every part into its compact index space, resolves
// the direct-write exchange bases and starts the worker pool (workers 0
// selects runtime.NumCPU(); the pool clamps it to the part count).
func CompileLayout(u *Mesh, p *Partition, workers int) (*Layout, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if len(p.Part) != u.NumCells {
		return nil, fmt.Errorf("umesh: partition covers %d cells, mesh has %d", len(p.Part), u.NumCells)
	}
	if workers < 0 {
		return nil, fmt.Errorf("umesh: workers must be non-negative, got %d", workers)
	}
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	l := &Layout{u: u, part: p, parts: make([]*partLayout, p.NumParts), starts: make([]int32, p.NumParts+1)}
	for me := range l.parts {
		ps, err := newPartLayout(u, p, me)
		if err != nil {
			return nil, err
		}
		l.parts[me] = ps
		l.starts[me+1] = l.starts[me] + int32(ps.nOwned)
		if len(ps.sends) > 0 || len(ps.recvs) > 0 {
			l.exchanges = true
		}
	}
	// Resolve each send plan's direct-write base against the receiver's halo
	// layout. The partition builds sendPlan[src][dst] and recvPlan[dst][src]
	// from the same cell list, so the planned length must match the slot.
	for me, ps := range l.parts {
		for si := range ps.sends {
			sp := &ps.sends[si]
			sp.dstBase = -1
			for _, r := range l.parts[sp.dst].recvs {
				if r.src == me && r.n == len(sp.idx) {
					sp.dstBase = r.base
				}
			}
			if sp.dstBase < 0 {
				return nil, fmt.Errorf("umesh: part %d sends %d cells to part %d but the receiver plans no matching halo block", me, len(sp.idx), sp.dst)
			}
		}
	}
	l.pool = exec.NewPool(workers, p.NumParts)
	return l, nil
}

// Close stops the worker pool. Nothing built on the layout may run after.
func (l *Layout) Close() { l.pool.Stop() }

// sortedKeys returns a plan map's part keys in ascending order — the
// deterministic neighbor ordering every precompiled plan uses.
func sortedKeys(m map[int][]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// newPartLayout renumbers one part into its compact local index space and
// precompiles its exchange plans (the direct-write bases are resolved by
// CompileLayout once every part's halo layout exists).
func newPartLayout(u *Mesh, p *Partition, me int) (*partLayout, error) {
	owned := p.Owned[me]
	ps := &partLayout{nOwned: len(owned)}

	// Local renumbering: owned cells first (in Owned order), then each
	// source part's halo cells as one contiguous block, sources ascending.
	localOf := make(map[int]int32, len(owned))
	ps.globalOf = make([]int32, 0, len(owned))
	for i, c := range owned {
		localOf[c] = int32(i)
		ps.globalOf = append(ps.globalOf, int32(c))
	}
	for _, src := range sortedKeys(p.recvPlan[me]) {
		cells := p.recvPlan[me][src]
		ps.recvs = append(ps.recvs, recvSlot{src: src, base: len(ps.globalOf), n: len(cells)})
		for _, c := range cells {
			if _, dup := localOf[c]; dup {
				return nil, fmt.Errorf("umesh: part %d receives cell %d twice", me, c)
			}
			localOf[c] = int32(len(ps.globalOf))
			ps.globalOf = append(ps.globalOf, int32(c))
		}
		ps.nHalo += len(cells)
	}

	// CSR adjacency over local indices, preserving the exact per-cell
	// neighbor order of the serial cell-based sweep.
	ps.rowStart = make([]int32, ps.nOwned+1)
	for i, c := range owned {
		ps.rowStart[i+1] = ps.rowStart[i] + int32(u.Degree(c))
	}
	ps.nbrLocal = make([]int32, ps.rowStart[ps.nOwned])
	ps.nbrTrans = make([]float64, ps.rowStart[ps.nOwned])
	k := 0
	for _, c := range owned {
		nbrs, trans := u.halfFaces(c)
		for j, nb := range nbrs {
			li, ok := localOf[int(nb)]
			if !ok {
				return nil, fmt.Errorf("umesh: part %d: neighbor %d of owned cell %d is neither owned nor planned halo", me, nb, c)
			}
			ps.nbrLocal[k] = li
			ps.nbrTrans[k] = trans[j]
			k++
		}
	}

	// Send plans: local owned indices to read; the direct-write base into
	// the receiver is filled in by CompileLayout.
	for _, dst := range sortedKeys(p.sendPlan[me]) {
		cells := p.sendPlan[me][dst]
		sp := sendPlan{dst: dst, idx: make([]int32, len(cells))}
		for i, c := range cells {
			li, ok := localOf[c]
			if !ok || li >= int32(ps.nOwned) {
				return nil, fmt.Errorf("umesh: part %d: planned send cell %d is not owned", me, c)
			}
			sp.idx[i] = li
		}
		ps.sends = append(ps.sends, sp)
	}

	return ps, nil
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
