package umesh

import (
	"math"
	"slices"
	"testing"

	"repro/internal/physics"
	"repro/internal/solver"
)

// The V-cycle's bucketed layouts against the walks they replaced: the CSR
// walk of A_c and the member walk of a restriction, kept here as oracles, on
// the benchmark mesh and on random meshes whose degenerate topology gives
// singleton aggregates, coarse rows of degree 0 and 1 and duplicate faces,
// with NaN, ±0 and ±Inf in the operands; and the smoothing steps' vector
// bodies against their Go loops.

// csrApply is the CSR walk: w = A·z, each row's diagonal term first and then
// its off-diagonal terms in ascending column order.
func csrApply(w, z, diag []float64, ptr, col []int32, val []float64) {
	for i := range w {
		acc := diag[i] * z[i]
		for k := ptr[i]; k < ptr[i+1]; k++ {
			acc += val[k] * z[col[k]]
		}
		w[i] = acc
	}
}

// memberWalk is the member walk: per aggregate, (r − w) summed from zero
// over its members in the order given.
func memberWalk(out []float64, members [][]int32, r, w []float64) {
	for a, cells := range members {
		acc := 0.0
		for _, c := range cells {
			acc += r[c] - w[c]
		}
		out[a] = acc
	}
}

// walkMembers lists each of n aggregates' members in walk order, straight
// from the fine → aggregate map.
func walkMembers(aggOf []int32, n int, walk []int32) [][]int32 {
	members := make([][]int32, n)
	for _, c := range walk {
		members[aggOf[c]] = append(members[aggOf[c]], c)
	}
	return members
}

// rowRef is where a row of a rows layout sits: its group's first entry in
// idx, its lane, and its length.
type rowRef struct{ g, lane, k int32 }

// readRows reads a lane-major rows layout of n rows back by row id, as where
// each row sits and its entries, failing unless the buckets ascend in length
// and none is empty, ids ascend within a bucket, every row is listed exactly
// once, every pad lane of a bucket's last group repeats its lane 0 and the
// buckets' groups take every entry.
func readRows(t testing.TB, what string, n int, r *rows) ([]rowRef, [][]int32) {
	t.Helper()
	refs, entries := make([]rowRef, n), make([][]int32, n)
	p, g := 0, 0
	for bi, b := range r.buckets {
		if b.n <= 0 || bi > 0 && b.k <= r.buckets[bi-1].k || g+b.span() > len(r.idx) {
			t.Fatalf("%s bucket %d (length %d, %d rows) is empty, out of order or past the layout", what, bi, b.k, b.n)
		}
		w := int(1 + b.k)
		for j := range int(b.n) {
			at, lane := g+j/4*w, j%4
			i := r.idx[at][lane]
			if i < 0 || int(i) >= n || entries[i] != nil || j > 0 && r.idx[g+(j-1)/4*w][(j-1)%4] >= i {
				t.Fatalf("%s row %d out of range, listed twice or out of order in bucket %d", what, i, bi)
			}
			row := make([]int32, b.k)
			for e := range row {
				row[e] = r.idx[at+1+e][lane]
			}
			refs[i], entries[i] = rowRef{g: int32(at), lane: int32(lane), k: b.k}, row
			p++
		}
		if m := int(b.n % 4); m > 0 {
			for _, e := range r.idx[g+b.span()-w : g+b.span()] {
				for l := m; l < 4; l++ {
					if e[l] != e[0] {
						t.Fatalf("%s bucket %d: pad lane %d of its last group does not repeat lane 0: %v", what, bi, l, e)
					}
				}
			}
		}
		g += b.span()
	}
	if p != n || g != len(r.idx) {
		t.Fatalf("%s buckets list %d of %d rows and %d of %d entries", what, p, n, g, len(r.idx))
	}
	return refs, entries
}

// assertPadsRepeat fails unless every pad lane of each bucket's last group
// of a lane-major value layout holds its lane 0's bits.
func assertPadsRepeat(t testing.TB, what string, buckets []bucket, val [][4]float64) {
	t.Helper()
	for _, b := range buckets {
		if m := int(b.n % 4); m > 0 {
			for _, e := range val[b.span()-int(1+b.k) : b.span()] {
				for l := m; l < 4; l++ {
					if math.Float64bits(e[l]) != math.Float64bits(e[0]) {
						t.Fatalf("%s: pad lane %d of a last group does not repeat lane 0: %v", what, l, e)
					}
				}
			}
		}
		val = val[b.span():]
	}
}

// rowEntries is how many entries a rows layout's rows hold, pads not
// counted.
func rowEntries(r *rows) int {
	n := 0
	for _, b := range r.buckets {
		n += int(b.n * b.k)
	}
	return n
}

// oracleCSR lays the coarse oracle's band out as A_c's off-diagonal rows,
// −t in ascending column order: an A_c assembled without the build's sort.
func oracleCSR(o *coarseOracle) (ptr, col []int32, val []float64) {
	ptr = make([]int32, o.n+1)
	for i := range o.n {
		for j := max(i-o.bw, 0); j <= min(i+o.bw, o.n-1); j++ {
			if t := o.t(i, j); j != i && t != 0 {
				col, val = append(col, int32(j)), append(val, -t)
			}
		}
		ptr[i+1] = int32(len(col))
	}
	return ptr, col, val
}

// salted fills v from rng at the given scale, one entry in rate (none at 0)
// replaced by a special value.
func salted(rng *fuzzRand, v []float64, scale float64, rate uint64) []float64 {
	for i := range v {
		v[i] = scale * (rng.float() - 0.5)
		if rate > 0 && rng.next()%rate == 0 {
			v[i] = fuzzSpecials[rng.next()%uint64(len(fuzzSpecials))]
		}
	}
	return v
}

// assertSameBits fails at the first entry where got and want differ (two
// NaNs count as equal).
func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d]: %g (%#x), oracle %g (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestCoarseBucketsMatchCSRAndMemberWalks(t *testing.T) {
	meshes := map[string]*Mesh{"bench": benchRadial(t)}
	for i, size := range [][2]int{{24, 72}, {40, 20}, {60, 60}, {150, 120}, {400, 700}, {97, 300}} {
		meshes["random-"+string(rune('a'+i))] = randomFuzzMesh(uint64(i+1)*0x9e37, size[0], size[1], 0)
	}
	var singleton, deg0, deg1, dupFace bool
	for name, u := range meshes {
		sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lvl, err := sys.amg()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o, err := newCoarseOracle(sys, lvl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pairs := map[[2]int]bool{}
		for _, f := range u.Faces {
			p := [2]int{min(f.A, f.B), max(f.A, f.B)}
			dupFace = dupFace || pairs[p]
			pairs[p] = true
		}
		ptr, col, val := oracleCSR(o)
		for i := range lvl.nAgg {
			deg0 = deg0 || ptr[i+1] == ptr[i]
			deg1 = deg1 || ptr[i+1] == ptr[i]+1
		}
		fine := walkMembers(lvl.aggOf, lvl.nAgg, CanonicalOrder(u))
		coarse := walkMembers(lvl.coarse.aggOf, lvl.coarse.nAgg, iota32(lvl.nAgg))
		for _, m := range fine {
			singleton = singleton || len(m) == 1
		}
		if _, got := readRows(t, "level-1 restriction", lvl.nAgg, &lvl.restrict.rows); !slices.EqualFunc(got, fine, slices.Equal) {
			t.Fatalf("%s: the level-1 restriction's member lists differ from the canonical walk's", name)
		}
		if _, got := readRows(t, "level-2 restriction", lvl.coarse.nAgg, &lvl.coarse.restrict.rows); !slices.EqualFunc(got, coarse, slices.Equal) {
			t.Fatalf("%s: the level-2 restriction's member lists differ from the ascending walk's", name)
		}
		n, nc, n2 := u.NumCells, lvl.nAgg, lvl.coarse.nAgg
		rng := fuzzRand(uint64(n))
		for _, rate := range []uint64{0, 256, 16, 3} {
			z := salted(&rng, make([]float64, nc), 1e3, rate)
			got, want := make([]float64, nc), make([]float64, nc)
			lvl.ac.apply(got, z)
			csrApply(want, z, o.d, ptr, col, val)
			assertSameBits(t, name+" A_c·z", got, want)

			r, w := salted(&rng, make([]float64, n), 1e3, rate), salted(&rng, make([]float64, n), 1e3, rate)
			lvl.restrict.run(got, r, w)
			memberWalk(want, fine, r, w)
			assertSameBits(t, name+" level-1 restriction", got, want)

			rc, wc := salted(&rng, make([]float64, nc), 1e3, rate), salted(&rng, make([]float64, nc), 1e3, rate)
			got2, want2 := make([]float64, n2), make([]float64, n2)
			lvl.coarse.restrict.run(got2, rc, wc)
			memberWalk(want2, coarse, rc, wc)
			assertSameBits(t, name+" level-2 restriction", got2, want2)
		}
		// Every residual −0 − (+0) = −0: only a sum that starts from +0, as
		// the member walk's does, comes out +0.
		r, w := make([]float64, n), make([]float64, n)
		for i := range r {
			r[i] = math.Copysign(0, -1)
		}
		got, want := make([]float64, nc), make([]float64, nc)
		lvl.restrict.run(got, r, w)
		memberWalk(want, fine, r, w)
		assertSameBits(t, name+" level-1 restriction of −0", got, want)
		got2, want2 := make([]float64, n2), make([]float64, n2)
		lvl.coarse.restrict.run(got2, r[:nc], w[:nc])
		memberWalk(want2, coarse, r[:nc], w[:nc])
		assertSameBits(t, name+" level-2 restriction of −0", got2, want2)
	}
	if !singleton || !deg0 || !deg1 || !dupFace {
		t.Errorf("the meshes miss a shape: singleton aggregate %v, degree-0 row %v, degree-1 row %v, duplicate face %v",
			singleton, deg0, deg1, dupFace)
	}
}

func TestPartRestrictionsMatchMemberWalk(t *testing.T) {
	// Each part's restriction over its compact layout sums exactly the
	// aggregates it owns, their members in canonical order, and together
	// the parts cover every aggregate once.
	u := benchRadial(t)
	for _, levels := range []int{0, 1, 3} {
		po, closeOp := residentFixtureOn(t, u, levels, 1)
		if err := po.SetPrecond(solver.PrecondAMG); err != nil {
			t.Fatal(err)
		}
		lvl := po.amg
		fine := walkMembers(lvl.aggOf, lvl.nAgg, CanonicalOrder(u))
		rng := fuzzRand(uint64(levels + 1))
		r, w := salted(&rng, make([]float64, u.NumCells), 1e3, 16), salted(&rng, make([]float64, u.NumCells), 1e3, 16)
		want := make([]float64, lvl.nAgg)
		memberWalk(want, fine, r, w)
		got, owner := make([]float64, lvl.nAgg), make([]int, lvl.nAgg)
		for i := range owner {
			owner[i] = -1
		}
		for me, op := range po.parts {
			ps := po.l.parts[me]
			rl, wl := make([]float64, ps.nOwned), make([]float64, ps.nOwned)
			for i := range rl {
				rl[i], wl[i] = r[ps.globalOf[i]], w[ps.globalOf[i]]
			}
			op.restrict.run(got, rl, wl)
			op.restrict.each(func(a int32, _ []int32) {
				if owner[a] >= 0 {
					t.Fatalf("levels %d: aggregate %d restricted by parts %d and %d", levels, a, owner[a], me)
				}
				owner[a] = me
			})
		}
		if i := slices.Index(owner, -1); i >= 0 {
			t.Fatalf("levels %d: no part restricts aggregate %d", levels, i)
		}
		assertSameBits(t, "part restriction", got, want)
		closeOp()
	}
}

func TestVectorSmoothingMatchesGo(t *testing.T) {
	if !vectorRows {
		t.Skip("no vector body for the smoothing steps on this host")
	}
	// Lengths 0–9 — no whole group, one, two, each with every tail — at
	// offsets 0–3 into the streams, so the bodies also run off 32-byte
	// alignment, on special values at four saltings.
	rng := fuzzRand(51)
	for n := 0; n <= 9; n++ {
		for off := 0; off <= 3; off++ {
			for _, rate := range []uint64{0, 8, 3, 1} {
				var in [4][]float64 // z, inv, r, w
				for v := range in {
					in[v] = salted(&rng, make([]float64, off+n), 1e3, rate)
				}
				run := func(vector bool) (pre, post []float64) {
					defer func(v bool) { vectorRows = v }(vectorRows)
					vectorRows = vector
					pre, post = slices.Clone(in[0]), slices.Clone(in[0])
					amgPre(pre[off:], in[1][off:], in[2][off:])
					amgPost(post[off:], in[1][off:], in[2][off:], in[3][off:])
					return pre, post
				}
				gotPre, gotPost := run(true)
				wantPre, wantPost := run(false)
				assertSameBits(t, "amgPre z", gotPre, wantPre)
				assertSameBits(t, "amgPost z", gotPost, wantPost)
			}
		}
	}
}

func TestVectorGathersMatchGo(t *testing.T) {
	if !vectorRows {
		t.Skip("no vector body for the V-cycle's gathers on this host")
	}
	// For n = 0–9, a layout of n rows of every length 0–11, so each bucket's
	// last group is whole or partial by n mod 4; the rows' lengths are
	// shuffled before layRows, so ids scatter over the groups, and the
	// columns or members repeat and reach past the rows. The A_c product,
	// the restriction and the prolongation (over n elements) run on windows
	// at offsets 0–3, with special values — NaNs with payloads among them —
	// in z, r, w, ec and the A_c values at four saltings.
	nans := []float64{math.Float64frombits(0x7ff8000000000bad), math.Float64frombits(0xfff4000000c0ffee)}
	rng := fuzzRand(55)
	salt := func(v []float64, rate uint64) []float64 {
		salted(&rng, v, 1e3, rate)
		for i := range v {
			if rate > 0 && rng.next()%(2*rate) == 0 {
				v[i] = nans[rng.next()%2]
			}
		}
		return v
	}
	for n := 0; n <= 9; n++ {
		var lens []int32
		for k := range int32(12) {
			for range n {
				lens = append(lens, k)
			}
		}
		for i := len(lens) - 1; i > 0; i-- {
			j := rng.next() % uint64(i+1)
			lens[i], lens[j] = lens[j], lens[i]
		}
		rowsN, m := len(lens), len(lens)+5
		ptr := make([]int32, rowsN+1)
		for i, l := range lens {
			ptr[i+1] = ptr[i] + l
		}
		col := make([]int32, ptr[rowsN])
		for i := range col {
			col[i] = int32(rng.next() % uint64(m))
		}
		g, _ := layRows(iota32(rowsN), ptr, col)
		restrict := restriction{g}
		agg := make([]int32, 3+n)
		for i := range agg {
			agg[i] = int32(rng.next() % uint64(m))
		}
		for _, rate := range []uint64{0, 8, 3, 1} {
			a := newCoarseMatrix(salt(make([]float64, rowsN), rate), nil, ptr, col, salt(make([]float64, len(col)), rate))
			for off := 0; off <= 3; off++ {
				var in [5][]float64 // z, r, w, ec, and the outputs' prior contents
				for v := range in {
					in[v] = salt(make([]float64, off+m), rate)
				}
				run := func(vector bool) (w, out, z []float64) {
					defer func(v bool) { vectorRows = v }(vectorRows)
					vectorRows = vector
					w, out, z = slices.Clone(in[4]), slices.Clone(in[4]), slices.Clone(in[0][:off+n])
					a.apply(w[off:], in[0][off:])
					restrict.run(out[off:], in[1][off:], in[2][off:])
					amgProlong(z[off:], in[3][off:], agg[off:][:n])
					return w, out, z
				}
				gotW, gotOut, gotZ := run(true)
				wantW, wantOut, wantZ := run(false)
				assertSameBits(t, "A_c·z", gotW, wantW)
				assertSameBits(t, "restriction", gotOut, wantOut)
				assertSameBits(t, "prolongation z", gotZ, wantZ)
			}
		}
	}
}
