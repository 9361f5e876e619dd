package core

import (
	"repro/internal/dsd"
	"repro/internal/mesh"
)

// This file applies the 14-FLOP per-face flux kernel (§5.3.3: fluxElem,
// in dsd.FluxFace or the flat engine's dsd.FluxCell) to the ten faces and
// assembles the residual, the engines' ways. Every face is evaluated by the
// same kernel and added in the same fixed order from +0, so all engines
// produce bit-identical float32 residuals.

// faceFlux evaluates F = Υ·λ_upw·ΔΦ for one face group into dst, reading the
// own column (pK, gzK), the neighbor column (pL, gzL) and the face
// transmissibilities tr. Exactly 6 FMUL + 4 FSUB + 1 FADD + 1 FMA + 1 FNEG
// per element, plus one predicated SELGT — the Table 4 mix.
func (s *peState) faceFlux(dst, tr, pK, gzK, pL, gzL dsd.Desc) {
	e, c := s.eng, s.consts
	if s.opts.Vectorized {
		// Whole-column vector issue: the descriptors already are the face
		// group's full views, so no subviews need slicing on the hot path.
		e.FluxFace(dst, tr, pK, gzK, pL, gzL, c)
		return
	}
	// Scalar ablation (fabric engine only): one issue per element per op
	// (§5.3.3 in reverse), through single-element subviews of the same
	// buffers.
	for z := 0; z < dst.Len; z++ {
		e.FluxFace(dst.MustSlice(z, 1), tr.MustSlice(z, 1), pK.MustSlice(z, 1),
			gzK.MustSlice(z, 1), pL.MustSlice(z, 1), gzL.MustSlice(z, 1), c)
	}
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

// The fabric engine's application, in three pieces after zeroing the
// residual (Algorithm 1's rflux := 0): it computes the vertical faces while
// columns are in flight and each in-plane face as its column arrives
// (§5.3.2), so the order of computation depends on communication timing and
// the flux columns wait in fbuf for the fixed-order assembly.

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

// applyCell is the flat engine's application: one dsd.FluxCell
// over the faces in assembly order, each in-plane neighbor's column read off
// its send column (the wire the FMOV receive copies from) and a missing
// neighbor's off the mirror buffers. It counts and yields what receive,
// compute and assemble would, but writes only the residual.
func (s *peState) applyCell(states []peState) {
	var faces [mesh.NumDirections]dsd.Face
	k := 0
	for _, d := range assemblyOrder {
		if !s.opts.Diagonals && d.IsDiagonal() {
			continue
		}
		pL, gzL := s.faceNeighbor(d)
		faces[k] = dsd.Face{Tr: s.trans[d], PL: pL, GzL: gzL}
		if d < mesh.Down && s.hasNbr[d] { // in-plane directions are enum values 0..7
			faces[k].Wire = s.wire(states, d)
		}
		k++
	}
	s.eng.FluxCell(s.res, s.p, s.gz, faces[:k], s.consts)
}
