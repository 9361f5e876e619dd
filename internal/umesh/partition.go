package umesh

import (
	"fmt"
	"sort"
)

// Partition assigns cells to parts and precomputes the halo-exchange plan:
// for every (owner, neighbor-part) pair, the exact cell lists to ship. This
// is the top-level distribution concern that "would be usually implemented
// with MPI" (§4); CompileLayout (layout.go) flattens the plan into the
// direct-write index arrays the partitioned runtimes exchange through.
type Partition struct {
	NumParts int
	// Part maps cell → owning part.
	Part []int
	// Owned lists each part's cells. RCB partitions list them in canonical
	// order (see CanonicalOrder), each part owning one contiguous canonical
	// run with parts ascending.
	Owned [][]int
	// canonical records that Owned has the canonical-run structure above —
	// what entitles partitioned reductions to the part-count-independent
	// canonical block fold.
	canonical bool
	// sendPlan[p] lists, per destination part, the owned cells whose values
	// the destination needs (because a face crosses the boundary).
	sendPlan []map[int][]int
	// recvPlan[p] lists, per source part, the remote cells p will receive
	// (in the sender's order, so one message slots straight in).
	recvPlan []map[int][]int
}

// bisect is the one median split both RCB and CanonicalOrder recurse on:
// sort the subset along the widest axis of its bounding box (cell id breaks
// ties, so the split is deterministic) and cut at the middle. Sharing the
// helper is what guarantees the two recursions agree on every common prefix
// — an RCB part at any level is exactly one subtree of the canonical-order
// recursion, hence one contiguous canonical-order range.
func bisect(u *Mesh, ids []int) int {
	var lo, hi [3]float64
	for k := 0; k < 3; k++ {
		lo[k], hi[k] = u.Centroid[ids[0]][k], u.Centroid[ids[0]][k]
	}
	for _, c := range ids {
		for k := 0; k < 3; k++ {
			if v := u.Centroid[c][k]; v < lo[k] {
				lo[k] = v
			} else if v > hi[k] {
				hi[k] = v
			}
		}
	}
	axis := 0
	for k := 1; k < 3; k++ {
		if hi[k]-lo[k] > hi[axis]-lo[axis] {
			axis = k
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := u.Centroid[ids[i]][axis], u.Centroid[ids[j]][axis]
		if a != b {
			return a < b
		}
		return ids[i] < ids[j] // deterministic tie-break
	})
	return len(ids) / 2
}

// CanonicalOrder returns the mesh's cells in canonical RCB order: the
// recursive coordinate bisection carried all the way down to single cells.
// Because RCB is hierarchical — every partition level refines the previous
// one with the same median splits — each part of RCB(u, levels) owns one
// contiguous run of this order, for every level, with parts ascending.
//
// That makes the order the repo's deterministic reduction schedule: a dot
// product accumulated per part in canonical (compact-index) order and folded
// in part order is the same left-to-right sum for every part count, and for
// the serial reference too. It is partition-count-independent by
// construction, which is what keeps partitioned Krylov solves bit-identical
// across parts {1, 2, 4, 8, ... up to 2^reductionDepth} and to the serial
// solve.
// The order is computed once per mesh and cached (builders and mutators
// invalidate the cache); callers must treat the returned slice as
// read-only.
func CanonicalOrder(u *Mesh) []int32 {
	u.canonMu.Lock()
	defer u.canonMu.Unlock()
	if u.canon != nil {
		return u.canon
	}
	ids := make([]int, u.NumCells)
	for i := range ids {
		ids[i] = i
	}
	var rec func(ids []int)
	rec = func(ids []int) {
		if len(ids) <= 1 {
			return
		}
		mid := bisect(u, ids)
		rec(ids[:mid])
		rec(ids[mid:])
	}
	rec(ids)
	order := make([]int32, len(ids))
	for i, c := range ids {
		order[i] = int32(c)
	}
	u.canon = order
	return order
}

// reductionDepth fixes the depth of the canonical reduction tree: inner
// products are accumulated flat within each depth-8 canonical block (up to
// 256 blocks) and the block partials are folded flat in block order. Block
// boundaries are the canonical recursion's own cuts, so every RCB part with
// up to reductionDepth bisection levels owns whole blocks — which is what
// makes the folded sum the same for every part count, and for the serial
// reference.
const reductionDepth = 8

// canonicalBlocks returns the start offsets (ascending, first always 0) of
// the canonical reduction blocks for an n-cell mesh: the canonical-order
// positions cut by the first reductionDepth levels of the len/2 bisection
// recursion. The block structure depends only on n, never on a partition.
func canonicalBlocks(n int) []int32 {
	var blocks []int32
	var rec func(off, ln, d int)
	rec = func(off, ln, d int) {
		if d == 0 || ln <= 1 {
			blocks = append(blocks, int32(off))
			return
		}
		mid := ln / 2
		rec(off, mid, d-1)
		rec(off+mid, ln-mid, d-1)
	}
	rec(0, n, reductionDepth)
	return blocks
}

// blockSpan returns canonical block bi of an n-cell mesh as the half-open
// range [lo, hi) of canonical positions.
func blockSpan(blocks []int32, bi, n int) (lo, hi int32) {
	if bi+1 < len(blocks) {
		return blocks[bi], blocks[bi+1]
	}
	return blocks[bi], int32(n)
}

// RCB partitions the mesh into 2^levels parts with recursive coordinate
// bisection: split the widest centroid axis at its median, recurse. Each
// part's Owned list is in canonical order (see CanonicalOrder), so the
// concatenation of Owned lists over ascending parts is the canonical order
// itself — the property every deterministic partitioned reduction relies on.
func RCB(u *Mesh, levels int) (*Partition, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if levels < 0 || levels > 16 {
		return nil, fmt.Errorf("umesh: RCB levels %d out of range [0,16]", levels)
	}
	numParts := 1 << levels
	if numParts > u.NumCells {
		return nil, fmt.Errorf("umesh: %d parts exceed %d cells", numParts, u.NumCells)
	}
	part := make([]int, u.NumCells)
	cells := make([]int, u.NumCells)
	for i := range cells {
		cells[i] = i
	}
	var split func(ids []int, base, lvl int)
	split = func(ids []int, base, lvl int) {
		if lvl == 0 {
			for _, c := range ids {
				part[c] = base
			}
			return
		}
		mid := bisect(u, ids)
		split(ids[:mid], base, lvl-1)
		split(ids[mid:], base+(1<<(lvl-1)), lvl-1)
	}
	split(cells, 0, levels)
	p, err := buildPartition(u, part, numParts)
	if err != nil {
		return nil, err
	}
	// Rebuild the Owned lists in canonical order: each part's run of the
	// canonical order is contiguous, so appending in canonical traversal
	// yields canonically sorted lists.
	for i := range p.Owned {
		p.Owned[i] = p.Owned[i][:0]
	}
	for _, c := range CanonicalOrder(u) {
		p.Owned[part[c]] = append(p.Owned[part[c]], int(c))
	}
	p.canonical = true
	return p, nil
}

// buildPartition derives ownership lists and the halo plan from a part map.
func buildPartition(u *Mesh, part []int, numParts int) (*Partition, error) {
	p := &Partition{NumParts: numParts, Part: part}
	p.Owned = make([][]int, numParts)
	for c, pp := range part {
		if pp < 0 || pp >= numParts {
			return nil, fmt.Errorf("umesh: cell %d assigned to invalid part %d", c, pp)
		}
		p.Owned[pp] = append(p.Owned[pp], c)
	}
	// Halo plan: a face (A,B) crossing parts means each side needs the
	// other's cell value. Collect unique cells per (src,dst) pair in
	// deterministic (cell-id) order.
	needed := make([]map[int]map[int]bool, numParts) // dst → src → set of src cells
	for i := range needed {
		needed[i] = make(map[int]map[int]bool)
	}
	addNeed := func(dst, src, cell int) {
		if needed[dst][src] == nil {
			needed[dst][src] = make(map[int]bool)
		}
		needed[dst][src][cell] = true
	}
	for _, f := range u.Faces {
		pa, pb := part[f.A], part[f.B]
		if pa == pb {
			continue
		}
		addNeed(pa, pb, f.B)
		addNeed(pb, pa, f.A)
	}
	p.sendPlan = make([]map[int][]int, numParts)
	p.recvPlan = make([]map[int][]int, numParts)
	for i := range p.sendPlan {
		p.sendPlan[i] = make(map[int][]int)
		p.recvPlan[i] = make(map[int][]int)
	}
	for dst := 0; dst < numParts; dst++ {
		for src, set := range needed[dst] {
			cells := make([]int, 0, len(set))
			for c := range set {
				cells = append(cells, c)
			}
			sort.Ints(cells)
			p.recvPlan[dst][src] = cells
			p.sendPlan[src][dst] = cells
		}
	}
	return p, nil
}

// HaloCells returns how many remote cell values part p receives per step —
// the communication volume the §9 "arbitrary topology" mapping must move.
func (p *Partition) HaloCells(part int) int {
	n := 0
	for _, cells := range p.recvPlan[part] {
		n += len(cells)
	}
	return n
}
