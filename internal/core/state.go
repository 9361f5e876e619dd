package core

import (
	"fmt"

	"repro/internal/dsd"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// peState is the device-side state of one PE: descriptors over its private
// memory for the Z column it owns (paper §5.1). The layout, in allocation
// order:
//
//	pPad, gzPad   — own pressure and g·z columns with one ghost cell at each
//	                end, so every cell computes all ten faces with full-length
//	                vectors (boundary faces carry Υ = 0)
//	res           — the flux residual column
//	trans[10]     — per-direction transmissibility columns
//	nbrP/nbrGz[8] — receive buffers for the eight in-plane neighbors
//	fbuf[10]      — per-face flux columns (assembled in fixed order)
//	scratch       — kernel intermediates: 5 buffers with reuse (§5.3.1),
//	                13 without
//
// fbuf and scratch are what the CSL kernel needs, so every run allocates
// them and the footprint model counts them; how much of them a run writes
// depends on the engine. The fused dsd.FluxFace keeps the intermediates in
// registers, so scratch is written only when the kernel executes op by op;
// the flat engine's dsd.FluxFaceAcc also adds each flux to the residual from
// the register, so there fbuf too is footprint-only unless a face falls back.
// The fabric engine computes faces in arrival order and assembles them in
// the fixed order afterwards, so it stores every flux column in fbuf.
//
// With buffer reuse the footprint is 44·Nz+4 words; the CS-2's 12288-word
// PEs therefore hold at most Nz = 279, and without reuse only Nz = 236 —
// bracketing the paper's 246-layer maximum mesh (see EXPERIMENTS.md).
type peState struct {
	eng    *dsd.Engine
	opts   Options
	consts dsd.FluxConsts
	x, y   int
	nz     int
	dims   mesh.Dims

	pPad, gzPad dsd.Desc // length nz+2
	p, gz       dsd.Desc // body views, length nz
	res         dsd.Desc
	trans       [mesh.NumDirections]dsd.Desc
	nbrP, nbrGz [8]dsd.Desc // indexed by mesh.Direction (0..7 are in-plane)
	fbuf        [mesh.NumDirections]dsd.Desc
	// scratch holds the view of each of the kernel's 13 intermediates, in
	// production order (the v* indices). Without buffer reuse every
	// intermediate has a buffer of its own; with it they share five
	// (reuseSlot).
	scratch [scratchNaive]dsd.Desc

	// sendBuf is the host-side copy of the own body columns in send order:
	// the Nz pressure words followed by the Nz gravity words. The host
	// loaders and perturb write the columns here first and copy them into PE
	// memory, so halo exchange never allocates; neighbors read it directly.
	sendBuf []float32

	hasNbr [8]bool // in-plane mesh adjacency
}

// scratchReuse and scratchNaive are the intermediate-buffer counts with and
// without the §5.3.1 reuse optimization.
const (
	scratchReuse = 5
	scratchNaive = 13
)

// WordsPerZ returns the per-PE memory footprint per mesh layer for the given
// options — the wse.MachineSpec.MaxNz input.
func WordsPerZ(bufferReuse bool) int {
	scratch := scratchNaive
	if bufferReuse {
		scratch = scratchReuse
	}
	// 2 padded own columns + res + 10 trans + 16 nbr + 10 fbuf + scratch.
	return 2 + 1 + 10 + 16 + 10 + scratch
}

// FixedWords is the Z-independent part of the footprint (the pad cells).
const FixedWords = 4

// layout allocates one PE's descriptors and binds its send column; it reads
// nothing from the mesh (the band-wide loaders below do). The engine's
// memory must be freshly allocated (descriptors are laid out from offset 0).
func (s *peState) layout(eng *dsd.Engine, dims mesh.Dims, fl physics.Fluid, x, y int, opts Options, sendBuf []float32) error {
	nz := dims.Nz
	c := fl.Constants32()
	*s = peState{
		eng:     eng,
		opts:    opts,
		consts:  dsd.FluxConsts{AHat: c.AHat, CHat: c.CHat, NegC: c.NegC, InvMu: c.InvMu},
		x:       x,
		y:       y,
		nz:      nz,
		dims:    dims,
		sendBuf: sendBuf,
	}
	mem := eng.Mem
	fail := func(what string, err error) error {
		return fmt.Errorf("core: PE(%d,%d) allocating %s: %w", x, y, what, err)
	}
	var err error
	if s.pPad, err = mem.Alloc(nz + 2); err != nil {
		return fail("pressure column", err)
	}
	if s.gzPad, err = mem.Alloc(nz + 2); err != nil {
		return fail("gravity column", err)
	}
	s.p = s.pPad.MustSlice(1, nz)
	s.gz = s.gzPad.MustSlice(1, nz)
	if s.res, err = mem.Alloc(nz); err != nil {
		return fail("residual column", err)
	}
	for _, d := range mesh.AllDirections {
		if s.trans[d], err = mem.Alloc(nz); err != nil {
			return fail("transmissibility columns", err)
		}
	}
	for i := range s.nbrP {
		if s.nbrP[i], err = mem.Alloc(nz); err != nil {
			return fail("neighbor pressure buffers", err)
		}
		if s.nbrGz[i], err = mem.Alloc(nz); err != nil {
			return fail("neighbor gravity buffers", err)
		}
	}
	for _, d := range mesh.AllDirections {
		if s.fbuf[d], err = mem.Alloc(nz); err != nil {
			return fail("flux buffers", err)
		}
	}
	var bufs [scratchNaive]dsd.Desc
	nScratch := scratchNaive
	if opts.BufferReuse {
		nScratch = scratchReuse
	}
	for i := range bufs[:nScratch] {
		if bufs[i], err = mem.Alloc(nz); err != nil {
			return fail("kernel scratch", err)
		}
	}
	for v := range s.scratch {
		slot := v
		if opts.BufferReuse {
			slot = reuseSlot[v]
		}
		s.scratch[v] = bufs[slot]
	}
	for i, d := range xyDirections {
		dx, dy, _ := d.Offset()
		nx, ny := x+dx, y+dy
		s.hasNbr[i] = nx >= 0 && nx < dims.Nx && ny >= 0 && ny < dims.Ny
	}
	return nil
}

// hostWrite copies a host column into PE memory (uncounted — the host
// runtime's memcpy analog). Column and descriptor are both Nz long by
// construction, so a mismatch is a bug.
func (s *peState) hostWrite(d dsd.Desc, src []float32) {
	if err := s.eng.Mem.WriteAll(d, src); err != nil {
		panic(err)
	}
}

// residual is the host's view of the PE's residual column.
func (s *peState) residual() []float32 { return s.eng.Mem.HostView(s.res) }

// globalIndex maps the PE's z-th cell to the mesh's linear index.
func (s *peState) globalIndex(z int) int {
	return (z*s.dims.Ny+s.y)*s.dims.Nx + s.x
}

// refreshGhosts mirrors the column ends into the pad cells, so the z-boundary
// faces see Δp = Δgz = 0 in addition to Υ = 0.
func (s *peState) refreshGhosts() {
	mem := s.eng.Mem
	nz := s.nz
	mem.StoreHost(s.pPad, 0, mem.Load(s.p, 0))
	mem.StoreHost(s.pPad, nz+1, mem.Load(s.p, nz-1))
	mem.StoreHost(s.gzPad, 0, mem.Load(s.gz, 0))
	mem.StoreHost(s.gzPad, nz+1, mem.Load(s.gz, nz-1))
}

// perturb applies the shared between-application pressure update to the own
// column. The update models the host supplying "a different pressure vector
// at every call" (§3) and is therefore a host-style write, not kernel work:
// the send buffer's pressure half is the host copy, updated first and then
// copied into PE memory. The kernel never writes p or gz, so the two stay
// equal and the buffer stays valid for every neighbor that reads it.
func (s *peState) perturb(app int) {
	p := s.sendBuf[:s.nz]
	mesh.PerturbColumn32(p, app, s.globalIndex(0), s.dims.Nx*s.dims.Ny, mesh.PerturbAmplitude)
	s.hostWrite(s.p, p)
	s.refreshGhosts()
}

// ownColumn returns the PE's serialized (pressure, gravity) body columns in
// send order: the Nz pressure words followed by the Nz gravity words — the
// paper's "local block of data of length Nz × 2" (§5.2.1). The returned
// slice is the persistent send buffer: valid until the next perturb, never
// reallocated.
func (s *peState) ownColumn() []float32 { return s.sendBuf }

// receiveColumn stores an arrived 2·Nz column into the direction's neighbor
// buffers (FMOV: fabric load + memory store per element).
func (s *peState) receiveColumn(dirIdx int, data []float32) error {
	if len(data) != 2*s.nz {
		return fmt.Errorf("core: PE(%d,%d) received %d words for %s, want %d",
			s.x, s.y, len(data), xyDirections[dirIdx], 2*s.nz)
	}
	s.eng.MovRecv(s.nbrP[dirIdx], data[:s.nz])
	s.eng.MovRecv(s.nbrGz[dirIdx], data[s.nz:])
	return nil
}
