package umesh

// This file holds the AMG V-cycle's host loops, which run once per Krylov
// iteration on both levels: the product with A_c, the restrictions, the
// prolongation and the weighted-Jacobi smoothing around them. Both sparse
// operands are rows, bucketed by length — A_c's rows by degree, the
// restrictions' aggregates by size — and laid out lane-major, four rows to a
// group, so every row of a bucket runs the same number of terms and entry e
// of four rows is one load: a bucket goes to a vector body (one gather per
// entry, one lane per row) where there is one, and its Go spelling walks the
// same groups two at a time, eight independent sums in flight. As in
// kernels.go, the inner loops index windows of one length and carry no bounds
// checks beyond their gathers; `make bce` pins the number of check sites this
// file reports.

// bucket is one run of a length-bucketed layout: n rows of k entries each,
// in ⌈n/4⌉ groups after the previous bucket's.
type bucket struct{ k, n int32 }

// span is how many lane-major entries the bucket's groups take, 1+k each.
func (b bucket) span() int { return int(b.n+3) / 4 * int(1+b.k) }

// rows is a sparse layout bucketed by row length (layRows) and laid out
// lane-major: a bucket's rows go in groups of four, in their original order,
// and a group of rows of length k is 1+k entries of idx — its four row ids,
// then entry e of each of the four rows side by side, e = 1…k. A bucket's
// last group may be partial: its missing lanes repeat lane 0, so they
// compute lane 0's row again and store the same bits to the same id.
type rows struct {
	idx     [][4]int32
	buckets []bucket
}

// coarseMatrix is A_c: the inverse of its diagonal, and its off-diagonal
// rows bucketed by degree — in idx the row ids and their columns
// (ascending), and in val, at the same places, the rows' diagonal entries
// and their off-diagonal values (−conductance).
type coarseMatrix struct {
	rows
	inv []float64
	val [][4]float64
}

// restriction sums r − w over aggregates bucketed by size: the rows are the
// aggregates and their entries the members, in the level's walk order.
type restriction struct{ rows }

// apply is w = A_c·z, each row's diagonal term first and then its
// off-diagonal terms in ascending column order, every product rounded before
// its add — the CSR walk's bits. A bucket goes to the vector body where there
// is one (coarseApplyVector); coarseApplyGo is its Go spelling.
func (a *coarseMatrix) apply(w, z []float64) {
	idx, val := a.idx, a.val
	for _, b := range a.buckets {
		m := b.span()
		c, v := idx[:m], val[:m]
		idx, val = idx[m:], val[m:]
		if !coarseApplyVector(w, z, c, v, int(b.k)) {
			coarseApplyGo(w, z, c, v, int(b.k))
		}
	}
}

// coarseApplyGo is apply on one bucket's groups of rows of degree k, two
// groups at a time and then the last one alone.
func coarseApplyGo(w, z []float64, c [][4]int32, v [][4]float64, k int) {
	g := 1 + k
	v = v[:len(c)]
	for ; len(c) >= 2*g; c, v = c[2*g:], v[2*g:] {
		i, j, d, e := c[0], c[g], v[0], v[g]
		c0, c1, v0, v1 := c[1:][:k], c[g+1:][:k], v[1:][:k], v[g+1:][:k]
		s0, s1, s2, s3 := d[0]*z[i[0]], d[1]*z[i[1]], d[2]*z[i[2]], d[3]*z[i[3]]
		s4, s5, s6, s7 := e[0]*z[j[0]], e[1]*z[j[1]], e[2]*z[j[2]], e[3]*z[j[3]]
		for x, p := range c0 {
			q, a, b := c1[x], v0[x], v1[x]
			s0 += a[0] * z[p[0]]
			s1 += a[1] * z[p[1]]
			s2 += a[2] * z[p[2]]
			s3 += a[3] * z[p[3]]
			s4 += b[0] * z[q[0]]
			s5 += b[1] * z[q[1]]
			s6 += b[2] * z[q[2]]
			s7 += b[3] * z[q[3]]
		}
		w[i[0]], w[i[1]], w[i[2]], w[i[3]] = s0, s1, s2, s3
		w[j[0]], w[j[1]], w[j[2]], w[j[3]] = s4, s5, s6, s7
	}
	if len(c) == 0 {
		return
	}
	i, d := c[0], v[0]
	c0, v0 := c[1:][:k], v[1:][:k]
	s0, s1, s2, s3 := d[0]*z[i[0]], d[1]*z[i[1]], d[2]*z[i[2]], d[3]*z[i[3]]
	for x, p := range c0 {
		a := v0[x]
		s0 += a[0] * z[p[0]]
		s1 += a[1] * z[p[1]]
		s2 += a[2] * z[p[2]]
		s3 += a[3] * z[p[3]]
	}
	w[i[0]], w[i[1]], w[i[2]], w[i[3]] = s0, s1, s2, s3
}

// run restricts the residual r − w (w = A·z) into out: per aggregate, from
// zero, (r − w)_c added over the members in their order. A bucket goes to
// the vector body where there is one (restrictVector); restrictGo is its Go
// spelling.
func (g *restriction) run(out, r, w []float64) {
	idx := g.idx
	for _, b := range g.buckets {
		m := b.span()
		c := idx[:m]
		idx = idx[m:]
		if !restrictVector(out, r, w, c, int(b.k)) {
			restrictGo(out, r, w, c, int(b.k))
		}
	}
}

// restrictGo is run on one bucket's groups of aggregates of k members, two
// groups at a time and then the last one alone.
func restrictGo(out, r, w []float64, c [][4]int32, k int) {
	g := 1 + k
	for ; len(c) >= 2*g; c = c[2*g:] {
		i, j := c[0], c[g]
		c0, c1 := c[1:][:k], c[g+1:][:k]
		s0, s1, s2, s3, s4, s5, s6, s7 := 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
		for x, p := range c0 {
			q := c1[x]
			s0 += r[p[0]] - w[p[0]]
			s1 += r[p[1]] - w[p[1]]
			s2 += r[p[2]] - w[p[2]]
			s3 += r[p[3]] - w[p[3]]
			s4 += r[q[0]] - w[q[0]]
			s5 += r[q[1]] - w[q[1]]
			s6 += r[q[2]] - w[q[2]]
			s7 += r[q[3]] - w[q[3]]
		}
		out[i[0]], out[i[1]], out[i[2]], out[i[3]] = s0, s1, s2, s3
		out[j[0]], out[j[1]], out[j[2]], out[j[3]] = s4, s5, s6, s7
	}
	if len(c) == 0 {
		return
	}
	i := c[0]
	s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
	for _, p := range c[1:][:k] {
		s0 += r[p[0]] - w[p[0]]
		s1 += r[p[1]] - w[p[1]]
		s2 += r[p[2]] - w[p[2]]
		s3 += r[p[3]] - w[p[3]]
	}
	out[i[0]], out[i[1]], out[i[2]], out[i[3]] = s0, s1, s2, s3
}

// each calls f on every row and its entries, bucket by bucket, pad lanes
// skipped — the build's walk of a laid-out restriction. idx is f's only
// during the call.
func (r *rows) each(f func(id int32, idx []int32)) {
	groups, row := r.idx, []int32(nil)
	for _, b := range r.buckets {
		for j := range b.n {
			grp, l := groups[j/4*(1+b.k):][:1+b.k], j%4
			row = row[:0]
			for _, e := range grp[1:] {
				row = append(row, e[l])
			}
			f(grp[0][l], row)
		}
		groups = groups[b.span():]
	}
}

// amgPre is the weighted-Jacobi pre-smooth from zero: z = ω·D⁻¹r. Its whole
// groups of four go to the vector body where there is one (amgPreVector);
// the loop is its Go spelling and does the rest.
func amgPre(z, inv, r []float64) {
	inv, r = inv[:len(z)], r[:len(z)]
	k := amgPreVector(z, inv, r)
	inv, r, z = inv[k:len(z)], r[k:len(z)], z[k:]
	for i := range z {
		z[i] = amgOmega * (inv[i] * r[i])
	}
}

// amgProlong adds the coarse correction: z_i += e[agg(i)]. Its whole groups
// of four go to the vector body where there is one (amgProlongVector); the
// loop is its Go spelling and does the rest.
func amgProlong(z, ec []float64, agg []int32) {
	agg = agg[:len(z)]
	k := amgProlongVector(z, ec, agg)
	agg, z = agg[k:len(z)], z[k:]
	for i := range z {
		z[i] += ec[agg[i]]
	}
}

// amgPost is the weighted-Jacobi post-smooth: z += ω·D⁻¹(r − A·z), w = A·z.
// Its whole groups of four go to the vector body where there is one
// (amgPostVector), so where the Go loop takes over depends on the part
// count; the explicit rounding keeps a compiler that fuses multiply-adds
// from giving the loop other bits than the body's.
func amgPost(z, inv, r, w []float64) {
	inv, r, w = inv[:len(z)], r[:len(z)], w[:len(z)]
	k := amgPostVector(z, inv, r, w)
	inv, r, w, z = inv[k:len(z)], r[k:len(z)], w[k:len(z)], z[k:]
	for i := range z {
		z[i] += float64(amgOmega * (inv[i] * (r[i] - w[i])))
	}
}
