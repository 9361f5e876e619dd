package core

import (
	"repro/internal/dsd"
	"repro/internal/mesh"
)

// This file is the 14-FLOP per-face flux kernel (DESIGN.md §4), plus the
// two engines' ways of applying it to the ten faces and assembling the
// residual. The operation order is identical
// in every variant, so all engines produce bit-identical float32 residuals.

// The kernel's intermediates, in production order (DESIGN.md §4).
const (
	vDp    = iota // pL − pK
	vDgz          // gzL − gzK
	vRK           // â·pK
	vRL           // â·pL
	vSum          // rK + rL
	vAvg          // ρavg = ½·sum + ĉ
	vGt           // ρavg·dgz
	vNg           // −gt
	vDPhi         // ΔΦ = dp − ng
	vRup          // upwinded â·p
	vRhoUp        // ρup = rup − (−ĉ)
	vLam          // λ = ρup/μ
	vT1           // Υ·ΔΦ
)

// reuseSlot is the §5.3.1 hand-crafted buffer reuse: which of the five
// scratch buffers holds each intermediate. A value is overwritten only once
// it is dead (ρavg replaces the sum in place, ΔΦ replaces dp, λ ends up where
// rL started).
var reuseSlot = [scratchNaive]int{
	vDp: 0, vDgz: 1, vRK: 2, vRL: 3, vSum: 4, vAvg: 4, vGt: 1, vNg: 1,
	vDPhi: 0, vRup: 3, vRhoUp: 3, vLam: 3, vT1: 0,
}

// faceFlux evaluates F = Υ·λ_upw·ΔΦ for one face group into dst, reading the
// own column (pK, gzK), the neighbor column (pL, gzL) and the face
// transmissibilities tr. Exactly 6 FMUL + 4 FSUB + 1 FADD + 1 FMA + 1 FNEG
// per element, plus one predicated SELGT — the Table 4 mix.
func (s *peState) faceFlux(dst, tr, pK, gzK, pL, gzL dsd.Desc) {
	if s.opts.Vectorized {
		// Whole-column vector issue: the descriptors already are the face
		// group's full views, so no subviews need slicing on the hot path.
		s.fluxSeq(dst, tr, pK, gzK, pL, gzL, 0)
		return
	}
	// Scalar ablation: one issue per element per op (§5.3.3 in reverse),
	// through single-element subviews of the same buffers.
	for z := 0; z < dst.Len; z++ {
		s.fluxSeq(dst.MustSlice(z, 1), tr.MustSlice(z, 1), pK.MustSlice(z, 1),
			gzK.MustSlice(z, 1), pL.MustSlice(z, 1), gzL.MustSlice(z, 1), z)
	}
}

// fluxSeq issues the kernel over pre-sliced views that start off cells into
// the column (whole columns when vectorized, single elements in the scalar
// ablation). The fused dsd.FluxFace macro-op executes it in one pass with the
// intermediates in registers; when it declines (strided operands, fast path
// off) the same 14 ops are issued one by one through the scratch buffers —
// the spelling FluxFace is tested against. Either way the op order, the
// counters and every result bit are the same, under both buffer disciplines.
func (s *peState) fluxSeq(f, tr, pK, gzK, pL, gzL dsd.Desc, off int) {
	e, c := s.eng, s.consts
	if e.FluxFace(f, tr, pK, gzK, pL, gzL, c) {
		return
	}
	var v [scratchNaive]dsd.Desc
	for i, sc := range s.scratch {
		v[i] = sc.MustSlice(off, f.Len)
	}
	e.SubVV(v[vDp], pL, pK)
	e.SubVV(v[vDgz], gzL, gzK)
	e.MulVS(v[vRK], pK, c.AHat)
	e.MulVS(v[vRL], pL, c.AHat)
	e.AddVV(v[vSum], v[vRK], v[vRL])
	e.FmaVSS(v[vAvg], v[vSum], 0.5, c.CHat)
	e.MulVV(v[vGt], v[vAvg], v[vDgz])
	e.NegV(v[vNg], v[vGt])
	e.SubVV(v[vDPhi], v[vDp], v[vNg])
	e.SelGtV(v[vRup], v[vDPhi], v[vRK], v[vRL])
	e.SubVS(v[vRhoUp], v[vRup], c.NegC)
	e.MulVS(v[vLam], v[vRhoUp], c.InvMu)
	e.MulVV(v[vT1], tr, v[vDPhi])
	e.MulVV(f, v[vT1], v[vLam]) // accumulate-store happens at assembly
}

// faceNeighbor returns the neighbor-side (pL, gzL) views of direction d. An
// in-plane neighbor is the received column. The z±1 neighbors live in the
// same PE memory (§5.2c): shifted views over the padded own columns stand in
// for them, and no fabric traffic occurs — which is why Table 4 counts no
// FMOV for the vertical faces.
func (s *peState) faceNeighbor(d mesh.Direction) (pL, gzL dsd.Desc) {
	switch d {
	case mesh.Up:
		return s.p.Shift(1), s.gz.Shift(1)
	case mesh.Down:
		return s.p.Shift(-1), s.gz.Shift(-1)
	}
	return s.nbrP[d], s.nbrGz[d] // in-plane directions are enum values 0..7
}

// computeFace evaluates the flux column of direction d into fbuf[d].
func (s *peState) computeFace(d mesh.Direction) {
	pL, gzL := s.faceNeighbor(d)
	s.faceFlux(s.fbuf[d], s.trans[d], s.p, s.gz, pL, gzL)
}

// The fabric engine's application, in three pieces: it computes the vertical
// faces while columns are in flight and each in-plane face as its column
// arrives (§5.3.2), so the order of computation depends on communication
// timing and the flux columns wait in fbuf for the fixed-order assembly.

// beginApplication zeroes the residual (Algorithm 1's rflux := 0).
func (s *peState) beginApplication() {
	s.eng.Fill(s.res, 0)
}

// computeVerticalFaces evaluates the Up and Down flux columns.
func (s *peState) computeVerticalFaces() {
	s.computeFace(mesh.Up)
	s.computeFace(mesh.Down)
}

// assemble accumulates the ten face-flux columns into the residual in the
// fixed direction order ("assembles all the local fluxes", §6). Keeping the
// order fixed makes the float32 result independent of communication timing.
func (s *peState) assemble() {
	for _, d := range assemblyOrder {
		if !s.opts.Diagonals && d.IsDiagonal() {
			continue
		}
		s.eng.AccV(s.res, s.fbuf[d])
	}
}

// runLocalApplication is the flat engine's application: all neighbor data is
// in place before it computes, so it takes the faces in assembly order and
// adds each one's flux to the residual as it is produced (dsd.FluxFaceAcc) —
// the same accumulation order as compute-everything-then-assemble, without
// the round trip through fbuf. A face the macro-op declines (fast path off;
// the scalar ablation, whose issue counts are per element) is evaluated into
// fbuf[d] and accumulated from there.
func (s *peState) runLocalApplication() {
	s.beginApplication()
	for _, d := range assemblyOrder {
		if !s.opts.Diagonals && d.IsDiagonal() {
			continue
		}
		pL, gzL := s.faceNeighbor(d)
		if s.opts.Vectorized && s.eng.FluxFaceAcc(s.res, s.fbuf[d], s.trans[d], s.p, s.gz, pL, gzL, s.consts) {
			continue
		}
		s.faceFlux(s.fbuf[d], s.trans[d], s.p, s.gz, pL, gzL)
		s.eng.AccV(s.res, s.fbuf[d])
	}
}
