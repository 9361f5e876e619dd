package umesh

// This file holds the loops of the part-resident operator that run once per
// Krylov iteration: the row sweep over the row store (operator.go), the
// application that calls it, and the shard kernels program.go captures into
// plan steps. Each operand stream is resliced to the run or block being
// walked (window), so element loops carry no bounds checks beyond the neighbor
// gathers; `make bce` pins the number of check sites this file reports.

// window is v[lo:lo+n]. Every operand stream of a kernel loop is resliced
// through it with one n, so the compiler sees equal lengths and the loop
// indexes all of them on a single range check; the reslice itself is the one
// bounds check a run or block pays per operand.
func window(v []float64, lo, n int) []float64 { return v[lo:][:n] }

// block returns reduction block blk of the part as (start, length) in compact
// indices.
func (op *opPart) block(blk int) (lo, n int) {
	return int(op.blkLo[blk]), int(op.blkHi[blk] - op.blkLo[blk])
}

// quadFlux is a packed row's flux sum: f_k = t_k·(x[li_k] − xc) pairwise as
// (f0+f1)+(f2+f3), hostFluxRow's degree-4 expression on premultiplied
// weights. The four gathers are its only bounds checks.
func quadFlux(r *quadRow, x []float64, xc float64) float64 {
	f0 := r.t[0] * (x[r.li[0]] - xc)
	f1 := r.t[1] * (x[r.li[1]] - xc)
	f2 := r.t[2] * (x[r.li[2]] - xc)
	f3 := r.t[3] * (x[r.li[3]] - xc)
	return (f0 + f1) + (f2 + f3)
}

// sweep evaluates the rows of the given runs of dst = A·x in the part's local
// layout: per row dst = accum·xc − Σ_k t_k·(x[li_k] − xc), the sum
// associated exactly as hostFluxRow associates it — pairwise for the packed
// degree-4 rows, left to right from zero for every other degree. A non-nil w
// fuses the inner product ⟨w, dst⟩ into the pass: products accumulate in row
// order and each run with a flush slot stores (and restarts) the partial —
// the canonical blocked reduction, identical values and summation tree as a
// separate block sweep, one less memory pass. The runs must be cut at the
// reduction blocks, as a part's rows are (buildRows).
func (op *opPart) sweep(segs []rowSeg, x, dst, w, sums []float64) {
	acc := 0.0
	for si := range segs {
		s := &segs[si]
		lo, n := int(s.lo), int(s.n)
		accum, xs, d := window(op.accum, lo, n), window(x, lo, n), window(dst, lo, n)
		switch {
		case s.packed && w == nil:
			quad := op.quad[s.first:][:n]
			for k := range quad {
				xc := xs[k]
				d[k] = accum[k]*xc - quadFlux(&quad[k], x, xc)
			}
		case s.packed:
			quad, ws := op.quad[s.first:][:n], window(w, lo, n)
			for k := range quad {
				xc := xs[k]
				dk := accum[k]*xc - quadFlux(&quad[k], x, xc)
				d[k] = dk
				acc += ws[k] * dk
			}
		default:
			start := op.genStart[s.first:][:n+1]
			for k := range d {
				xc := xs[k]
				flux := 0.0
				for _, e := range op.gen[start[k]:start[k+1]] {
					flux += e.t * (x[e.li] - xc)
				}
				dk := accum[k]*xc - flux
				d[k] = dk
				if w != nil {
					acc += w[lo+k] * dk
				}
			}
		}
		if w != nil && s.flush >= 0 {
			sums[s.flush] = acc
			acc = 0
		}
	}
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
	op.sweep(op.rows, op.vecs[xv], dst, w, o.blockSums)
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

// shardDot accumulates ⟨a, b⟩.
func (o *PartOperator) shardDot(shard, av, bv int) {
	op := o.parts[shard]
	for blk := range op.blkLo {
		lo, n := op.block(blk)
		a, b := window(op.vecs[av], lo, n), window(op.vecs[bv], lo, n)
		acc := 0.0
		for i := range a {
			acc += a[i] * b[i]
		}
		o.blockSums[op.blkOut[blk]] = acc
	}
}

// shardXpby computes y = x + β·y (the CG search-direction update).
func (o *PartOperator) shardXpby(shard, yv, xv int, beta float64) {
	op := o.parts[shard]
	y, x := op.owned(yv), op.owned(xv)
	for i := range y {
		y[i] = x[i] + beta*y[i]
	}
}

// shardSubAxpyDot computes dst = a − α·b and accumulates ⟨dst, dst⟩, fused.
func (o *PartOperator) shardSubAxpyDot(shard, dstv, av, bv int, alpha float64) {
	op := o.parts[shard]
	for blk := range op.blkLo {
		lo, n := op.block(blk)
		dst, a, b := window(op.vecs[dstv], lo, n), window(op.vecs[av], lo, n), window(op.vecs[bv], lo, n)
		acc := 0.0
		for i := range dst {
			d := a[i] - alpha*b[i]
			dst[i] = d
			acc += d * d
		}
		o.blockSums[op.blkOut[blk]] = acc
	}
}

// shardCGStep computes x += α·p; r −= α·ap and accumulates ⟨r, r⟩ — the two
// CG axpys and the residual norm fused into one pass.
func (o *PartOperator) shardCGStep(shard, xv, pv, rv, apv int, alpha float64) {
	op := o.parts[shard]
	for blk := range op.blkLo {
		lo, n := op.block(blk)
		x, p := window(op.vecs[xv], lo, n), window(op.vecs[pv], lo, n)
		r, ap := window(op.vecs[rv], lo, n), window(op.vecs[apv], lo, n)
		acc := 0.0
		for i := range x {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			acc += ri * ri
		}
		o.blockSums[op.blkOut[blk]] = acc
	}
}

// shardCGStepPre is the fully fused CG tail for the elementwise (Jacobi)
// preconditioner: the CG update, the residual norm, the
// preconditioner application z = M⁻¹·r and ⟨r, z⟩, all in one pass. The
// per-element expressions and the per-block accumulation orders are exactly
// those of shardCGStep followed by shardPreDot, so the fusion is invisible
// bitwise.
func (o *PartOperator) shardCGStepPre(shard, xv, pv, rv, apv, zv int, alpha float64) {
	op := o.parts[shard]
	for blk := range op.blkLo {
		lo, n := op.block(blk)
		x, p := window(op.vecs[xv], lo, n), window(op.vecs[pv], lo, n)
		r, ap := window(op.vecs[rv], lo, n), window(op.vecs[apv], lo, n)
		z, inv := window(op.vecs[zv], lo, n), window(op.invDiag, lo, n)
		acc1, acc2 := 0.0, 0.0
		for i := range x {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			acc1 += ri * ri
			zi := inv[i] * ri
			z[i] = zi
			acc2 += ri * zi
		}
		o.blockSums[op.blkOut[blk]] = acc1
		o.blockSums2[op.blkOut[blk]] = acc2
	}
}

// shardPreDot computes z = M⁻¹·r for the elementwise (Jacobi) preconditioner
// with ⟨r, z⟩ accumulated in the same pass.
func (o *PartOperator) shardPreDot(shard, zv, rv int) {
	op := o.parts[shard]
	for blk := range op.blkLo {
		lo, n := op.block(blk)
		z, r, inv := window(op.vecs[zv], lo, n), window(op.vecs[rv], lo, n), window(op.invDiag, lo, n)
		acc := 0.0
		for i := range z {
			zi := inv[i] * r[i]
			z[i] = zi
			acc += r[i] * zi
		}
		o.blockSums[op.blkOut[blk]] = acc
	}
}
