package umesh

import "repro/internal/cpufeat"

// This file holds the loops of the part-resident operator that run once per
// Krylov iteration: the row sweep over the row store (operator.go), the
// application that calls it, and the shard kernels program.go captures into
// plan steps. Each operand stream is resliced to the block being walked
// (window), so element loops carry no bounds checks beyond the neighbor
// gathers; `make bce` pins the number of check sites this file reports.

// vectorRows selects the eight vector bodies — the row store's sweep, the
// fused CG tail, the direction update and the AMG V-cycle's two smoothing
// steps, A_c product, restriction and prolongation (cpufeat.AVX2FMA, so
// never off amd64); only tests clear it, to check or pin the Go spellings
// alone.
var vectorRows = cpufeat.AVX2FMA

// window is v[lo:lo+n]. Every operand stream of a kernel loop is resliced
// through it with one n, so the compiler sees equal lengths and the loop
// indexes all of them on a single range check; the reslice itself is the one
// bounds check a block pays per operand.
func window(v []float64, lo, n int) []float64 { return v[lo:][:n] }

// sweep evaluates every owned row of dst = A·x in the part's local layout,
// block by block: per row dst = accum·xc − Σ_k t_k·(x[li_k] − xc), the sum
// associated exactly as hostFluxRow associates it — pairwise as
// (f0+f1)+(f2+f3) for a row of degree 4, left to right from +0 for every
// other degree. A non-nil w fuses the inner product ⟨w, dst⟩ into the pass:
// products accumulate in row order and each block's partial goes to its
// blockSums slot — the canonical blocked reduction, identical values and
// summation tree as a separate block sweep, one less memory pass. A block's
// quads go to the vector body where there is one (quadVector); quadRows is
// its Go spelling.
func (op *opPart) sweep(x, dst, w, sums []float64) {
	for _, b := range op.blocks {
		xs, accum, d := window(x, b.lo, b.n), window(op.accum, b.lo, b.n), window(dst, b.lo, b.n)
		var ws []float64
		if w != nil {
			ws = window(w, b.lo, b.n)
		}
		acc, ok := quadVector(b.heads, b.slots, x, xs, accum, d, ws)
		if !ok {
			acc = quadRows(b.heads, b.slots, x, xs, accum, d, ws)
		}
		if w != nil {
			sums[b.out] = acc
		}
	}
}

// quadRows sweeps the quads of one block, whose rows xs, accum and d (and ws
// when the dot is fused) window, and returns the block's partial of ⟨w, d⟩.
// x is the part's local vector, the gathers' base. A row reads only its own
// faces, so a pad slot adds nothing; every quad is at least four slots wide.
func quadRows(heads []quadHead, slots []quadSlot, x, xs, accum, d, ws []float64) float64 {
	acc := 0.0
	for qi := range heads {
		h := &heads[qi]
		q, q4 := slots, (*[4]quadSlot)(slots)
		slots = slots[h.width:]
		for r := range min(4, len(xs)-4*qi) {
			k := 4*qi + r
			xc := xs[k]
			var flux float64
			if deg := h.deg[r]; deg == 4 {
				f0 := q4[0].t[r] * (x[q4[0].li[r]] - xc)
				f1 := q4[1].t[r] * (x[q4[1].li[r]] - xc)
				f2 := q4[2].t[r] * (x[q4[2].li[r]] - xc)
				f3 := q4[3].t[r] * (x[q4[3].li[r]] - xc)
				flux = (f0 + f1) + (f2 + f3)
			} else {
				for _, s := range q[:deg] {
					flux += s.t[r] * (x[s.li[r]] - xc)
				}
			}
			dk := accum[k]*xc - flux
			d[k] = dk
			if ws != nil {
				acc += ws[k] * dk
			}
		}
	}
	return acc
}

// applyRows is an application's one sweep: every owned row of dst = A·x in
// compact order, with ⟨w, dst⟩ fused in when withDot is set. The barrier
// before it ordered every neighbor's halo push (sendHalo) into x. dstv
// resolves through scratch to the part's preconditioner scratch while a
// rung's internal application is running.
func (o *PartOperator) applyRows(shard, xv, dstv, wv int, withDot, scratch bool) {
	op := o.parts[shard]
	dst := op.pw
	if !scratch {
		dst = op.vecs[dstv]
	}
	var w []float64
	if withDot {
		w = op.vecs[wv]
	}
	op.sweep(op.vecs[xv], dst, w, o.blockSums)
}

// The shard kernels below are the vector ops of the phase programs, one per
// solver.OpKind (program.go captures them into plan steps). Elementwise
// kernels run over the part's owned entries; reducing kernels accumulate
// per canonical block in compact order into blockSums/blockSums2, which the
// step's barrier action treeFolds. Each takes its operands as equal-length
// windows (of the owned range, or of one block at a time), so the element
// loops carry no bounds checks.

// shardCopy copies src's owned entries into dst.
func (o *PartOperator) shardCopy(shard, dstv, srcv int) {
	op := o.parts[shard]
	copy(op.owned(dstv), op.owned(srcv))
}

// shardDot accumulates ⟨a, b⟩, two blocks at a time: each block's partial
// is its own chain in element order, so two of them interleave without
// changing a bit, and past the shorter block's end the longer one's chain
// goes on alone (dotFrom).
func (o *PartOperator) shardDot(shard, av, bv int) {
	op := o.parts[shard]
	va, vb := op.vecs[av], op.vecs[bv]
	bi := 0
	for ; bi+1 < len(op.blocks); bi += 2 {
		blk0, blk1 := &op.blocks[bi], &op.blocks[bi+1]
		a0, b0 := window(va, blk0.lo, blk0.n), window(vb, blk0.lo, blk0.n)
		a1, b1 := window(va, blk1.lo, blk1.n), window(vb, blk1.lo, blk1.n)
		m := min(blk0.n, blk1.n)
		x0, y0, x1, y1 := a0[:m], b0[:m], a1[:m], b1[:m]
		acc0, acc1 := 0.0, 0.0
		for i := range x0 {
			acc0 += x0[i] * y0[i]
			acc1 += x1[i] * y1[i]
		}
		o.blockSums[blk0.out] = dotFrom(acc0, a0[m:], b0[m:])
		o.blockSums[blk1.out] = dotFrom(acc1, a1[m:], b1[m:])
	}
	if bi < len(op.blocks) {
		blk := &op.blocks[bi]
		o.blockSums[blk.out] = dotFrom(0, window(va, blk.lo, blk.n), window(vb, blk.lo, blk.n))
	}
}

// dotFrom adds a[i]·b[i] to acc in element order.
func dotFrom(acc float64, a, b []float64) float64 {
	b = b[:len(a)]
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}

// shardXpby computes y = x + β·y (the CG search-direction update). Its
// whole groups of four go to the vector body where there is one
// (xpbyVector); the loop is its Go spelling and does the rest.
func (o *PartOperator) shardXpby(shard, yv, xv int, beta float64) {
	op := o.parts[shard]
	y, x := op.owned(yv), op.owned(xv)
	k := xpbyVector(y, x, beta)
	y, x = y[k:], x[k:]
	for i := range y {
		y[i] = x[i] + beta*y[i]
	}
}

// shardSubAxpyDot computes dst = a − α·b and accumulates ⟨dst, dst⟩, fused.
func (o *PartOperator) shardSubAxpyDot(shard, dstv, av, bv int, alpha float64) {
	op := o.parts[shard]
	for _, blk := range op.blocks {
		lo, n := blk.lo, blk.n
		dst, a, b := window(op.vecs[dstv], lo, n), window(op.vecs[av], lo, n), window(op.vecs[bv], lo, n)
		acc := 0.0
		for i := range dst {
			d := a[i] - alpha*b[i]
			dst[i] = d
			acc += d * d
		}
		o.blockSums[blk.out] = acc
	}
}

// shardCGStep computes x += α·p; r −= α·ap and accumulates ⟨r, r⟩ — the two
// CG axpys and the residual norm fused into one pass.
func (o *PartOperator) shardCGStep(shard, xv, pv, rv, apv int, alpha float64) {
	op := o.parts[shard]
	for _, blk := range op.blocks {
		lo, n := blk.lo, blk.n
		x, p := window(op.vecs[xv], lo, n), window(op.vecs[pv], lo, n)
		r, ap := window(op.vecs[rv], lo, n), window(op.vecs[apv], lo, n)
		acc := 0.0
		for i := range x {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			acc += ri * ri
		}
		o.blockSums[blk.out] = acc
	}
}

// shardCGStepPre is the fully fused CG tail for the elementwise (Jacobi)
// preconditioner: the CG update, the residual norm, the
// preconditioner application z = M⁻¹·r and ⟨r, z⟩, all in one pass. The
// per-element expressions and the per-block accumulation orders are exactly
// those of shardCGStep followed by shardPreDot, so the fusion is invisible
// bitwise. A block's whole groups of four go to the vector body where there
// is one (cgTailVector), which adds each element's two products to the
// partials in element order as this loop does; the loop is its Go spelling
// and does the rest.
func (o *PartOperator) shardCGStepPre(shard, xv, pv, rv, apv, zv int, alpha float64) {
	op := o.parts[shard]
	for _, blk := range op.blocks {
		lo, n := blk.lo, blk.n
		x, p := window(op.vecs[xv], lo, n), window(op.vecs[pv], lo, n)
		r, ap := window(op.vecs[rv], lo, n), window(op.vecs[apv], lo, n)
		z, inv := window(op.vecs[zv], lo, n), window(op.invDiag, lo, n)
		k, acc1, acc2 := cgTailVector(x, p, r, ap, z, inv, alpha)
		x, p, r, ap, z, inv = x[k:n], p[k:n], r[k:n], ap[k:n], z[k:n], inv[k:n]
		for i := range x {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			acc1 += ri * ri
			zi := inv[i] * ri
			z[i] = zi
			acc2 += ri * zi
		}
		o.blockSums[blk.out] = acc1
		o.blockSums2[blk.out] = acc2
	}
}

// shardPreDot computes z = M⁻¹·r for the elementwise (Jacobi) preconditioner
// with ⟨r, z⟩ accumulated in the same pass.
func (o *PartOperator) shardPreDot(shard, zv, rv int) {
	op := o.parts[shard]
	for _, blk := range op.blocks {
		lo, n := blk.lo, blk.n
		z, r, inv := window(op.vecs[zv], lo, n), window(op.vecs[rv], lo, n), window(op.invDiag, lo, n)
		acc := 0.0
		for i := range z {
			zi := inv[i] * r[i]
			z[i] = zi
			acc += r[i] * zi
		}
		o.blockSums[blk.out] = acc
	}
}
