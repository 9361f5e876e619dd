package umesh

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/mesh"
)

// partitionFixtures returns meshes with genuinely different geometry for the
// RCB property tests.
func partitionFixtures(t *testing.T) map[string]*Mesh {
	t.Helper()
	_, conv := structuredFixture(t, mesh.Dims{Nx: 9, Ny: 7, Nz: 3})
	_, jit := structuredFixture(t, mesh.Dims{Nx: 9, Ny: 7, Nz: 3})
	if err := jit.Jitter(0.3, 5); err != nil {
		t.Fatal(err)
	}
	rad, err := NewRadialMesh(DefaultRadialOptions())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Mesh{"structured": conv, "jittered": jit, "radial": rad}
}

func TestRCBBalancedPerBisectionLevel(t *testing.T) {
	// Property: every median split leaves the two subtrees within one cell
	// of each other. Verified bottom-up: leaf sizes are the part sizes;
	// sibling subtree sums must differ by ≤1 at every level.
	for name, u := range partitionFixtures(t) {
		for _, levels := range []int{1, 2, 3} {
			p, err := RCB(u, levels)
			if err != nil {
				t.Fatal(err)
			}
			sizes := make([]int, p.NumParts)
			for i, owned := range p.Owned {
				sizes[i] = len(owned)
			}
			for lvl := levels; lvl > 0; lvl-- {
				next := make([]int, len(sizes)/2)
				for i := 0; i < len(sizes); i += 2 {
					l, r := sizes[i], sizes[i+1]
					if d := l - r; d < -1 || d > 1 {
						t.Errorf("%s levels=%d: sibling subtrees at level %d own %d vs %d cells",
							name, levels, lvl, l, r)
					}
					next[i/2] = l + r
				}
				sizes = next
			}
			if sizes[0] != u.NumCells {
				t.Fatalf("%s levels=%d: subtree sums reconstruct %d cells, mesh has %d",
					name, levels, sizes[0], u.NumCells)
			}
		}
	}
}

func TestCompileLayoutSendsMatchReceiverBlocks(t *testing.T) {
	// Property: every send is its receiver's halo block read back at the
	// sender — the same cells in the same order, one block per (src, dst)
	// pair, the blocks tiling each receiver's halo.
	for name, u := range partitionFixtures(t) {
		for _, levels := range []int{1, 3} {
			p, err := RCB(u, levels)
			if err != nil {
				t.Fatal(err)
			}
			l, err := CompileLayout(u, p, 1)
			if err != nil {
				t.Fatalf("%s levels=%d: %v", name, levels, err)
			}
			assertSendsMatchBlocks(t, l)
			l.Close()
		}
	}
}

func TestRCBPlannedHaloCellsFaceAdjacent(t *testing.T) {
	// Property: every halo cell is owned by another part, listed once, AND
	// shares a face with the receiving part, and every cut face's far cell
	// is listed — the lists hold exactly the §4 ghost layer.
	for _, u := range partitionFixtures(t) {
		p, err := RCB(u, 3)
		if err != nil {
			t.Fatal(err)
		}
		assertHaloLists(t, u, p)
	}
}

func TestCompileLayoutRejectsPartitionNotFromRCB(t *testing.T) {
	// A Partition's fields are exported, but only RCB records its halo
	// lists: a hand-built or truncated one is an error naming RCB, never a
	// panic, and so is an RCB partition of another mesh of the same size.
	_, u := structuredFixture(t, mesh.Dims{Nx: 9, Ny: 7, Nz: 3})
	_, other := structuredFixture(t, mesh.Dims{Nx: 7, Ny: 9, Nz: 3})
	p, err := RCB(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := RCB(other, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		p    *Partition
		want string
	}{
		"by hand":          {&Partition{NumParts: 2, Part: p.Part, Owned: p.Owned}, "RCB"},
		"owned truncated":  {&Partition{NumParts: 2, Part: p.Part, Owned: p.Owned[:1], halo: p.halo}, "RCB"},
		"halo truncated":   {&Partition{NumParts: 2, Part: p.Part, Owned: p.Owned, halo: p.halo[:1]}, "RCB"},
		"parts overstated": {&Partition{NumParts: 4, Part: p.Part, Owned: p.Owned, halo: p.halo}, "RCB"},
		"another mesh":     {q, "halo list"},
	} {
		l, err := CompileLayout(u, tc.p, 1)
		if err == nil {
			l.Close()
			t.Errorf("%s: compiled", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %s", name, err, tc.want)
		}
	}
}

func TestCanonicalOrderHierarchy(t *testing.T) {
	// The property the deterministic reductions stand on: the canonical
	// order is a permutation of the cells, every RCB part owns one
	// contiguous canonical run with parts ascending (so the concatenation of
	// Owned lists is the canonical order itself), and part boundaries land
	// on canonical block boundaries — at every depth RCB accepts (the radial
	// fixture has cells enough for all 2^reductionDepth parts). RCB reads its
	// parts off the order's cuts, so this holds by construction; that the
	// parts are the right ones is TestCanonicalOrderMatchesSortOracle's job.
	for name, u := range partitionFixtures(t) {
		canon := CanonicalOrder(u)
		if len(canon) != u.NumCells {
			t.Fatalf("%s: canonical order covers %d of %d cells", name, len(canon), u.NumCells)
		}
		seen := make([]bool, u.NumCells)
		for _, c := range canon {
			if seen[c] {
				t.Fatalf("%s: cell %d appears twice in the canonical order", name, c)
			}
			seen[c] = true
		}
		blockAt := map[int]bool{}
		for _, b := range canonicalBlocks(u.NumCells, reductionDepth) {
			blockAt[int(b)] = true
		}
		for levels := 0; levels <= reductionDepth; levels++ {
			if 1<<levels > u.NumCells {
				continue // more parts than cells: RCB refuses (TestRCBValidation)
			}
			p, err := RCB(u, levels)
			if err != nil {
				t.Fatal(err)
			}
			pos := 0
			for me, owned := range p.Owned {
				if !blockAt[pos] {
					t.Errorf("%s levels=%d: part %d starts at canonical position %d, not a block boundary",
						name, levels, me, pos)
				}
				for i, c := range owned {
					if int32(c) != canon[pos+i] {
						t.Fatalf("%s levels=%d: part %d owned[%d] = %d, canonical order has %d",
							name, levels, me, i, c, canon[pos+i])
					}
				}
				pos += len(owned)
			}
			if pos != u.NumCells {
				t.Fatalf("%s levels=%d: Owned lists cover %d of %d cells", name, levels, pos, u.NumCells)
			}
		}
	}
}

func TestCanonicalOrderCachedAndInvalidated(t *testing.T) {
	// The order is computed once per mesh; geometry mutation rebuilds it.
	_, u := structuredFixture(t, mesh.Dims{Nx: 6, Ny: 5, Nz: 2})
	first := CanonicalOrder(u)
	if second := CanonicalOrder(u); &second[0] != &first[0] {
		t.Error("second CanonicalOrder call recomputed instead of returning the cache")
	}
	if err := u.Jitter(0.3, 9); err != nil {
		t.Fatal(err)
	}
	after := CanonicalOrder(u)
	if &after[0] == &first[0] {
		t.Error("Jitter left a stale canonical order cached")
	}
}

// oracleBisect is the canonical recursion's median split as first
// written, one reflective sort per level: sort the subset along the widest
// axis of its bounding box (cell id breaks ties) and cut at the middle.
// CanonicalOrder's selection and RCB's cuts are held to it.
func oracleBisect(u *Mesh, ids []int) int {
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

// oracleOrder is the canonical order by oracleBisect down to single cells.
func oracleOrder(u *Mesh) []int32 {
	ids := make([]int, u.NumCells)
	for i := range ids {
		ids[i] = i
	}
	var rec func(ids []int)
	rec = func(ids []int) {
		if len(ids) <= 1 {
			return
		}
		mid := oracleBisect(u, ids)
		rec(ids[:mid])
		rec(ids[mid:])
	}
	rec(ids)
	order := make([]int32, len(ids))
	for i, c := range ids {
		order[i] = int32(c)
	}
	return order
}

// oracleRCB bisects levels deep by oracleBisect and returns the part map
// and each part's cells in oracle canonical order.
func oracleRCB(u *Mesh, order []int32, levels int) ([]int, [][]int) {
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
		mid := oracleBisect(u, ids)
		split(ids[:mid], base, lvl-1)
		split(ids[mid:], base+(1<<(lvl-1)), lvl-1)
	}
	split(cells, 0, levels)
	owned := make([][]int, 1<<levels)
	for _, c := range order {
		owned[part[c]] = append(owned[part[c]], int(c))
	}
	return part, owned
}

// assertMatchesSortOracle holds CanonicalOrder and RCB(u, l) for every
// depth RCB accepts to the sort-per-level oracle, element for element.
func assertMatchesSortOracle(t *testing.T, u *Mesh) {
	t.Helper()
	want := oracleOrder(u)
	if got := CanonicalOrder(u); !slices.Equal(got, want) {
		t.Fatalf("CanonicalOrder diverges from the sort oracle at position %d", firstDiff(got, want))
	}
	for levels := 0; levels <= reductionDepth && 1<<levels <= u.NumCells; levels++ {
		p, err := RCB(u, levels)
		if err != nil {
			t.Fatal(err)
		}
		part, owned := oracleRCB(u, want, levels)
		if !slices.Equal(p.Part, part) {
			t.Fatalf("RCB(%d).Part diverges from the sort oracle at cell %d", levels, firstDiff(p.Part, part))
		}
		for pp := range owned {
			if !slices.Equal(p.Owned[pp], owned[pp]) {
				t.Fatalf("RCB(%d).Owned[%d] diverges from the sort oracle", levels, pp)
			}
		}
	}
}

func firstDiff[E comparable](a, b []E) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestCanonicalOrderMatchesSortOracle(t *testing.T) {
	// The selection must put exactly the sort's cells on each node's left,
	// so the order and every RCB depth are the sort-per-level recursion's.
	// The structured meshes are tie-heavy: whole grid planes share a
	// coordinate, so the id tie-break decides most splits.
	meshes := map[string]*Mesh{"bench": benchRadial(t)}
	for _, seed := range []uint64{3, 8} {
		for name, opts := range map[string]RadialOptions{"default": DefaultRadialOptions(), "ladder": {Rings: 24, BaseSectors: 12, RefineEvery: 6, R0: 1, DR: 3, Dz: 4, PermMD: 150}} {
			u, err := NewRadialMesh(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := u.Jitter(0.3, seed); err != nil {
				t.Fatal(err)
			}
			meshes[fmt.Sprintf("jittered-%s-%d", name, seed)] = u
		}
	}
	for _, d := range []mesh.Dims{{Nx: 24, Ny: 24, Nz: 32}, {Nx: 16, Ny: 16, Nz: 16}, {Nx: 33, Ny: 5, Nz: 9}, {Nx: 1, Ny: 1, Nz: 50}, {Nx: 2, Ny: 3, Nz: 1}} {
		_, u := structuredFixture(t, d)
		meshes[fmt.Sprintf("structured-%dx%dx%d", d.Nx, d.Ny, d.Nz)] = u
	}
	for name, u := range meshes {
		t.Run(name, func(t *testing.T) { assertMatchesSortOracle(t, u) })
	}
}

func TestSelectLeftPutsTheSmallestLeft(t *testing.T) {
	// Every round budget leaves the same two sets — the k smallest keys
	// under (coordinate, id) left, the rest right: 0 and 1 reach the sort
	// fallback, the budget bisectAll grants finishes by selection.
	byKey := func(axis int) func(a, b cellKey) int {
		return func(a, b cellKey) int {
			if a.before(&b, axis) {
				return -1
			}
			return 1
		}
	}
	rng := fuzzRand(5)
	for _, n := range []int{2, 3, 12, 13, 40, 257, 1000} {
		for _, shape := range []string{"random", "ascending", "descending", "three values"} {
			keys := make([]cellKey, n)
			for i, j := range rngPerm(&rng, n) {
				v := float64(i) // ascending
				switch shape {
				case "random":
					v = rng.float()
				case "descending":
					v = float64(n - i)
				case "three values":
					v = float64(rng.next() % 3)
				}
				keys[i] = cellKey{[3]float64{0, v, 0}, int32(j)}
			}
			want := slices.Clone(keys)
			slices.SortFunc(want, byKey(1))
			for _, rounds := range []int{0, 1, 2 * bits.Len(uint(n))} {
				got, k := slices.Clone(keys), n/2
				selectLeft(got, k, 1, rounds)
				slices.SortFunc(got[:k], byKey(1))
				slices.SortFunc(got[k:], byKey(1))
				if !slices.Equal(got, want) {
					t.Errorf("n=%d %s rounds=%d: the left %d keys are not the %d smallest", n, shape, rounds, k, k)
				}
			}
		}
	}
}

// rngPerm returns a random permutation of 0..n-1.
func rngPerm(rng *fuzzRand, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := int(rng.next() % uint64(i+1))
		p[i], p[j] = p[j], i
	}
	return p
}

// cutFaceComm counts a partition's exchange from the mesh's faces alone:
// the distinct (receiver, far cell) pairs of its cut faces — the values one
// halo push moves — and the distinct ordered part pairs they join — its
// messages.
func cutFaceComm(u *Mesh, p *Partition) (values, messages uint64) {
	cells, pairs := map[[2]int]bool{}, map[[2]int]bool{}
	for _, f := range u.Faces {
		if pa, pb := p.Part[f.A], p.Part[f.B]; pa != pb {
			cells[[2]int{pa, f.B}], cells[[2]int{pb, f.A}] = true, true
			pairs[[2]int{pb, pa}], pairs[[2]int{pa, pb}] = true, true
		}
	}
	return uint64(len(cells)), uint64(len(pairs))
}
