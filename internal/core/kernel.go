package core

import (
	"repro/internal/dsd"
	"repro/internal/mesh"
)

// This file applies the 14-FLOP per-face flux kernel (§5.3.3: fluxElem,
// in dsd.FluxFace or the flat engine's bound dsd.Cell) to the ten faces and
// assembles the residual, the engines' ways. Every face is evaluated by the
// same kernel and added in the same fixed order from +0, so all engines
// produce bit-identical float32 residuals.

// faceFlux evaluates F = Υ·λ_upw·ΔΦ for one face group into dst, reading the
// own column (pK, gzK), the neighbor column (pL, gzL) and the face
// transmissibilities tr. Exactly 6 FMUL + 4 FSUB + 1 FADD + 1 FMA + 1 FNEG
// per element, plus one predicated SELGT — the Table 4 mix.
func (s *fabricPE) faceFlux(dst, tr, pK, gzK, pL, gzL dsd.Desc) {
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

// faceNeighbor returns the neighbor-side (pL, gzL) views of direction d in
// the PE's own memory. The z±1 neighbors live there (§5.2c): shifted views
// over the padded own columns stand in for them, and no fabric traffic occurs
// — which is why Table 4 counts no FMOV for the vertical faces. A missing
// in-plane neighbor's face reads the own columns: Υ = 0 on it, so its flux is
// ±0, which a residual summed from +0 absorbs. A present in-plane neighbor's
// column comes over the fabric (wired).
func (s *peState) faceNeighbor(d mesh.Direction) (pL, gzL dsd.Desc) {
	switch d {
	case mesh.Up:
		return s.p.Shift(1), s.gz.Shift(1)
	case mesh.Down:
		return s.p.Shift(-1), s.gz.Shift(-1)
	}
	return s.p, s.gz
}

// wired reports whether direction d's neighbor column comes over the fabric:
// d is in-plane (enum values 0..7) and the neighbor exists.
func (s *peState) wired(d mesh.Direction) bool { return d < mesh.Down && s.hasNbr[d] }

// computeFace evaluates the flux column of direction d into fbuf[d], reading
// a wired neighbor's column from its receive buffers.
func (s *fabricPE) computeFace(d mesh.Direction) {
	pL, gzL := s.faceNeighbor(d)
	if s.wired(d) {
		pL, gzL = s.nbrP[d], s.nbrGz[d]
	}
	s.faceFlux(s.fbuf[d], s.trans[d], s.p, s.gz, pL, gzL)
}

// The fabric engine's application, in three pieces after zeroing the
// residual (Algorithm 1's rflux := 0): it computes the vertical faces while
// columns are in flight and each in-plane face as its column arrives
// (§5.3.2), so the order of computation depends on communication timing and
// the flux columns wait in fbuf for the fixed-order assembly.

// computeVerticalFaces evaluates the Up and Down flux columns.
func (s *fabricPE) computeVerticalFaces() {
	s.computeFace(mesh.Up)
	s.computeFace(mesh.Down)
}

// assemble accumulates the ten face-flux columns into the residual in the
// fixed direction order ("assembles all the local fluxes", §6). Keeping the
// order fixed makes the float32 result independent of communication timing.
func (s *fabricPE) assemble() {
	for _, d := range assemblyOrder {
		if !s.opts.Diagonals && d.IsDiagonal() {
			continue
		}
		s.eng.AccV(s.res, s.fbuf[d])
	}
}

// bindCell binds the flat engine's application: one dsd.Cell over the faces
// in assembly order, each wired face on that neighbor's own p and gz columns
// (the words its send column carries, which no kernel writes) and every other
// face on faceNeighbor's views. It runs once every PE of the grid is laid
// out, since a neighbor may sit in another band, and BindCell checks every
// operand there, once.
func (s *peState) bindCell(states []peState) {
	var faces [mesh.NumDirections]dsd.Face
	k := 0
	for _, d := range assemblyOrder {
		if !s.opts.Diagonals && d.IsDiagonal() {
			continue
		}
		faces[k].Tr = s.trans[d]
		if s.wired(d) {
			dx, dy, _ := d.Offset()
			nbr := &states[(s.y+dy)*s.dims.Nx+s.x+dx]
			faces[k].WireP, faces[k].WireGz = nbr.view(nbr.p), nbr.view(nbr.gz)
		} else {
			faces[k].PL, faces[k].GzL = s.faceNeighbor(d)
		}
		k++
	}
	s.eng.BindCell(&s.cell, s.res, s.p, s.gz, faces[:k], s.consts)
}

// applyCell is the flat engine's application: the bound cell, which counts
// and yields what receive, compute and assemble would, but writes only the
// residual.
func (s *peState) applyCell() { s.eng.RunCell(&s.cell) }
