package umesh

// This file holds the AMG V-cycle's host loops, which run once per Krylov
// iteration on both levels: the product with A_c, the restrictions and the
// weighted-Jacobi smoothing around them. Both sparse operands are rows,
// bucketed by length — A_c's rows by degree, the restrictions' aggregates by
// size — so every row of a bucket runs the same number of terms and the inner
// loop's exit is the same branch bucket-long; each bucket is walked eight rows
// at a time, eight independent sums in flight. As in kernels.go, the inner
// loops index windows of one length and carry no bounds checks beyond their
// gathers; `make bce` pins the number of check sites this file reports.

// bucket is one run of a length-bucketed layout: n rows of k entries each,
// listed after the previous bucket's rows and stored after its entries.
type bucket struct{ k, n int32 }

// rows is a sparse layout bucketed by row length (layRows): ids lists the
// rows bucket by bucket, in their original order within a bucket, and idx
// each row's entries at the bucket's stride k.
type rows struct {
	ids, idx []int32
	buckets  []bucket
}

// coarseMatrix is A_c: the inverse of its diagonal, and its off-diagonal
// rows bucketed by degree — ids ascending within a bucket, idx their columns
// (ascending), val their values (−conductance) at the same offsets, and diag
// the rows' diagonal entries in ids' order.
type coarseMatrix struct {
	rows
	inv, diag, val []float64
}

// restriction sums r − w over aggregates bucketed by size: ids are the
// aggregates and idx their members, in the level's walk order.
type restriction struct{ rows }

// apply is w = A_c·z, each row's diagonal term first and then its
// off-diagonal terms in ascending column order, every product rounded before
// its add — the CSR walk's bits.
func (a *coarseMatrix) apply(w, z []float64) {
	rows, diag, col, val := a.ids, a.diag, a.idx, a.val
	for _, b := range a.buckets {
		k, n := int(b.k), int(b.n)
		ids, d, c, v := rows[:n], diag[:n], col[:n*k], val[:n*k]
		rows, diag, col, val = rows[n:], diag[n:], col[n*k:], val[n*k:]
		j := 0
		for ; j+8 <= n; j += 8 {
			c0, c1, c2, c3 := c[j*k:][:k], c[(j+1)*k:][:k], c[(j+2)*k:][:k], c[(j+3)*k:][:k]
			c4, c5, c6, c7 := c[(j+4)*k:][:k], c[(j+5)*k:][:k], c[(j+6)*k:][:k], c[(j+7)*k:][:k]
			v0, v1, v2, v3 := v[j*k:][:k], v[(j+1)*k:][:k], v[(j+2)*k:][:k], v[(j+3)*k:][:k]
			v4, v5, v6, v7 := v[(j+4)*k:][:k], v[(j+5)*k:][:k], v[(j+6)*k:][:k], v[(j+7)*k:][:k]
			i, di := ids[j:j+8:j+8], d[j:j+8:j+8]
			s0, s1, s2, s3 := di[0]*z[i[0]], di[1]*z[i[1]], di[2]*z[i[2]], di[3]*z[i[3]]
			s4, s5, s6, s7 := di[4]*z[i[4]], di[5]*z[i[5]], di[6]*z[i[6]], di[7]*z[i[7]]
			for e := range c0 {
				s0 += v0[e] * z[c0[e]]
				s1 += v1[e] * z[c1[e]]
				s2 += v2[e] * z[c2[e]]
				s3 += v3[e] * z[c3[e]]
				s4 += v4[e] * z[c4[e]]
				s5 += v5[e] * z[c5[e]]
				s6 += v6[e] * z[c6[e]]
				s7 += v7[e] * z[c7[e]]
			}
			w[i[0]], w[i[1]], w[i[2]], w[i[3]] = s0, s1, s2, s3
			w[i[4]], w[i[5]], w[i[6]], w[i[7]] = s4, s5, s6, s7
		}
		for ; j < n; j++ {
			c0, v0, i := c[j*k:][:k], v[j*k:][:k], ids[j]
			s := d[j] * z[i]
			for e := range c0 {
				s += v0[e] * z[c0[e]]
			}
			w[i] = s
		}
	}
}

// run restricts the residual r − w (w = A·z) into out: per aggregate, from
// zero, (r − w)_c added over the members in their order.
func (g *restriction) run(out, r, w []float64) {
	ids, cells := g.ids, g.idx
	for _, b := range g.buckets {
		k, n := int(b.k), int(b.n)
		as, c := ids[:n], cells[:n*k]
		ids, cells = ids[n:], cells[n*k:]
		j := 0
		for ; j+8 <= n; j += 8 {
			c0, c1, c2, c3 := c[j*k:][:k], c[(j+1)*k:][:k], c[(j+2)*k:][:k], c[(j+3)*k:][:k]
			c4, c5, c6, c7 := c[(j+4)*k:][:k], c[(j+5)*k:][:k], c[(j+6)*k:][:k], c[(j+7)*k:][:k]
			s0, s1, s2, s3, s4, s5, s6, s7 := 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
			for e := range c0 {
				s0 += r[c0[e]] - w[c0[e]]
				s1 += r[c1[e]] - w[c1[e]]
				s2 += r[c2[e]] - w[c2[e]]
				s3 += r[c3[e]] - w[c3[e]]
				s4 += r[c4[e]] - w[c4[e]]
				s5 += r[c5[e]] - w[c5[e]]
				s6 += r[c6[e]] - w[c6[e]]
				s7 += r[c7[e]] - w[c7[e]]
			}
			a := as[j : j+8 : j+8]
			out[a[0]], out[a[1]], out[a[2]], out[a[3]] = s0, s1, s2, s3
			out[a[4]], out[a[5]], out[a[6]], out[a[7]] = s4, s5, s6, s7
		}
		for ; j < n; j++ {
			s := 0.0
			for _, m := range c[j*k:][:k] {
				s += r[m] - w[m]
			}
			out[as[j]] = s
		}
	}
}

// each calls f on every row and its entries, bucket by bucket — the build's
// walk of a laid-out restriction.
func (r *rows) each(f func(id int32, idx []int32)) {
	ids, idx := r.ids, r.idx
	for _, b := range r.buckets {
		for range b.n {
			f(ids[0], idx[:b.k])
			ids, idx = ids[1:], idx[b.k:]
		}
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

// amgProlong adds the coarse correction: z_i += e[agg(i)].
func amgProlong(z, ec []float64, agg []int32) {
	agg = agg[:len(z)]
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
