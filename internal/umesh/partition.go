package umesh

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Partition assigns cells to parts and records each part's halo: the cells
// it reads but does not own. This is the top-level distribution concern that
// "would be usually implemented with MPI" (§4); CompileLayout (layout.go)
// compiles the halo lists into the direct-write index arrays the partitioned
// runtimes exchange through. Only RCB builds the halo lists, so
// CompileLayout rejects a Partition assembled by hand.
type Partition struct {
	NumParts int
	// Part maps cell → owning part.
	Part []int
	// Owned lists each part's cells in canonical order (see
	// CanonicalOrder); an RCB part owns one contiguous canonical run, with
	// parts ascending.
	Owned [][]int
	// halo[p] lists the cells part p reads across a cut face, grouped by
	// owning part with parts ascending, ascending by cell id within a
	// group. Faces are symmetric, so group q of halo[p] is also exactly
	// what part q sends to p: one list serves both ends of every message.
	halo [][]int32
}

// cellKey is one record of the array the canonical-order recursion carries:
// a cell's centroid and id.
type cellKey struct {
	c  [3]float64
	id int32
}

// before is the strict total order every bisection splits under: the
// coordinate along axis, then the cell id, which decides the many ties of a
// structured mesh's grid planes.
func (a *cellKey) before(b *cellKey, axis int) bool {
	if a.c[axis] != b.c[axis] {
		return a.c[axis] < b.c[axis]
	}
	return a.id < b.id
}

// CanonicalOrder returns the mesh's cells in canonical RCB order: the
// recursive coordinate bisection carried all the way down to single cells.
// Each node takes the widest axis of its cells' bounding box and puts the
// len/2 smallest under (coordinate, id) on its left — a median selection,
// not a sort. Only the left *set* matters: a node's box, axis and split
// depend on which cells it holds, never on their order, so the recursion
// below fixes the order, and it is the one a sort at every level gives.
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
	keys := make([]cellKey, u.NumCells)
	for i := range keys {
		keys[i] = cellKey{u.Centroid[i], int32(i)}
	}
	bisectAll(keys)
	order := make([]int32, len(keys))
	for i, k := range keys {
		order[i] = k.id
	}
	u.canon = order
	return order
}

// bisectAll orders keys canonically: split at the median along the widest
// axis of their bounding box (the first axis wins a tie), recurse left,
// loop right.
func bisectAll(keys []cellKey) {
	for len(keys) > 1 {
		lo, hi := keys[0].c, keys[0].c
		for i := range keys {
			for k, v := range keys[i].c {
				if v < lo[k] {
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
		mid := len(keys) / 2
		selectLeft(keys, mid, axis, 2*bits.Len(uint(len(keys))))
		bisectAll(keys[:mid])
		keys = keys[mid:]
	}
}

// selectLeft permutes keys in place so that keys[:k] holds the k smallest
// under before(axis): quickselect around median-of-three pivots until at
// most 12 keys are undecided, or rounds partition rounds are spent (bisectAll
// grants 2·log₂ n, so no input goes quadratic); a sort, which is insertion
// sort at that size, settles the rest.
func selectLeft(keys []cellKey, k, axis, rounds int) {
	lo, hi := 0, len(keys) // keys[:lo] < keys[lo:hi] < keys[hi:]
	for ; hi-lo > 12 && rounds > 0; rounds-- {
		a := keys[lo:hi]
		n, m := len(a), len(a)/2
		if a[m].before(&a[0], axis) {
			a[0], a[m] = a[m], a[0]
		}
		if a[n-1].before(&a[0], axis) {
			a[0], a[n-1] = a[n-1], a[0]
		}
		if a[m].before(&a[n-1], axis) { // the median of the three to a[n-1]
			a[m], a[n-1] = a[n-1], a[m]
		}
		p := 0
		for i := range n - 1 {
			if a[i].before(&a[n-1], axis) {
				a[i], a[p] = a[p], a[i]
				p++
			}
		}
		a[p], a[n-1] = a[n-1], a[p]
		switch p += lo; {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
	slices.SortFunc(keys[lo:hi], func(a, b cellKey) int {
		if a.before(&b, axis) {
			return -1
		}
		return 1 // ids are distinct: no two keys compare equal
	})
}

// reductionDepth fixes the depth of the canonical reduction tree: inner
// products are accumulated flat within each depth-8 canonical block (up to
// 256 blocks) and the block partials are folded flat in block order. Block
// boundaries are the canonical recursion's own cuts, so every RCB part with
// up to reductionDepth bisection levels owns whole blocks — which is what
// makes the folded sum the same for every part count, and for the serial
// reference. RCB goes no deeper.
const reductionDepth = 8

// MaxParts is the largest part count RCB builds: 2^reductionDepth.
const MaxParts = 1 << reductionDepth

// canonicalBlocks returns the start offsets (ascending, first always 0) of
// the depth-d canonical blocks of an n-cell mesh: the canonical-order
// positions cut by the first d levels of the len/2 bisection recursion. The
// reduction blocks are depth reductionDepth, RCB's parts depth levels; the
// block structure depends only on n and d, never on a partition.
func canonicalBlocks(n, d int) []int32 {
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
	rec(0, n, d)
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
// bisection: split the widest centroid axis at its median, recurse. Those
// splits are the first levels of CanonicalOrder's recursion, so part p is the
// order's depth-levels block p, and the concatenation of Owned lists over
// ascending parts is the canonical order itself — the property every
// deterministic partitioned reduction relies on. levels is at most
// reductionDepth, so every part owns whole reduction blocks.
func RCB(u *Mesh, levels int) (*Partition, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if levels < 0 || levels > reductionDepth {
		return nil, fmt.Errorf("umesh: RCB levels %d out of range [0,%d]", levels, reductionDepth)
	}
	numParts := 1 << levels
	if numParts > u.NumCells {
		return nil, fmt.Errorf("umesh: %d parts exceed %d cells", numParts, u.NumCells)
	}
	order, blocks := CanonicalOrder(u), canonicalBlocks(u.NumCells, levels)
	part := make([]int, u.NumCells)
	for pp := range blocks {
		lo, hi := blockSpan(blocks, pp, u.NumCells)
		for _, c := range order[lo:hi] {
			part[c] = pp
		}
	}
	return buildPartition(u, part, numParts)
}

// buildPartition derives the ownership lists, each in canonical order, and
// the halo lists from a part map.
func buildPartition(u *Mesh, part []int, numParts int) (*Partition, error) {
	p := &Partition{NumParts: numParts, Part: part}
	p.Owned = make([][]int, numParts)
	for _, c := range CanonicalOrder(u) {
		if pp := part[c]; pp < 0 || pp >= numParts {
			return nil, fmt.Errorf("umesh: cell %d assigned to invalid part %d", c, pp)
		}
		p.Owned[part[c]] = append(p.Owned[part[c]], int(c))
	}
	// One pass over each part's owned rows collects the neighbors it does
	// not own; seen[c] holds the stamp (1 + part) of the last part that
	// listed c, so a cell read across several faces is listed once.
	seen := make([]int32, u.NumCells)
	p.halo = make([][]int32, numParts)
	for me, owned := range p.Owned {
		var halo []int32
		stamp := int32(me + 1)
		for _, c := range owned {
			nbrs, _ := u.halfFaces(c)
			for _, nb := range nbrs {
				if part[nb] != me && seen[nb] != stamp {
					seen[nb] = stamp
					halo = append(halo, nb)
				}
			}
		}
		slices.SortFunc(halo, func(a, b int32) int {
			return cmp.Or(cmp.Compare(part[a], part[b]), cmp.Compare(a, b))
		})
		p.halo[me] = halo
	}
	return p, nil
}

// HaloCells returns how many remote cell values part p receives per step —
// the communication volume the §9 "arbitrary topology" mapping must move.
func (p *Partition) HaloCells(part int) int { return len(p.halo[part]) }
