package core

import (
	"fmt"

	"repro/internal/dsd"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// peState is the device-side state of one PE: descriptors over its private
// memory for the Z column it owns (paper §5.1) — the columns both engines
// read, and all the flat engine lays out. In allocation order:
//
//	pPad, gzPad   — own pressure and g·z columns with one ghost cell at each
//	                end, so every cell computes all ten faces with full-length
//	                vectors (boundary faces carry Υ = 0)
//	res           — the flux residual column
//	trans[10]     — per-direction transmissibility columns
//
// That is flatWordsPerZ·Nz + FixedWords words. The flat engine's cell (a
// dsd.Cell, bound once at Compile) reads each in-plane neighbor's own p and
// gz columns — the words its send column would carry — straight from that
// neighbor's memory, a missing neighbor's face the PE's own columns, and sums
// the fluxes in a register. The fabric engine lays out the rest (fabricPE).
//
// The paper's layout is the capacity model both engines are held to:
// WordsPerZ·Nz + FixedWords words, 44·Nz+4 with buffer reuse, so the CS-2's
// 12288-word PEs hold at most Nz = 279, and without reuse only Nz = 236 —
// bracketing the paper's 246-layer maximum mesh (§7; TestPaperNzCapacity).
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

	hasNbr [8]bool // in-plane mesh adjacency

	// cell is the flat engine's application, bound by bindCell (the fabric
	// engine leaves it zero).
	cell dsd.Cell
}

// fabricPE is one PE of the fabric engine: its peState, then the columns of
// the paper's layout only the fabric engine has — in allocation order,
//
//	nbrP/nbrGz[8] — receive buffers for the eight in-plane neighbors
//	fbuf[10]      — per-face flux columns (assembled in fixed order)
//	scratch       — kernel intermediates: 5 buffers with reuse (§5.3.1),
//	                13 without
//
// so its high-water mark is the paper's footprint. Computing faces in arrival
// order, it stores every flux column in fbuf. The fused dsd.FluxFace keeps
// the intermediates in registers, so no run writes scratch, and no
// descriptor of it is kept.
type fabricPE struct {
	*peState
	nbrP, nbrGz [8]dsd.Desc // indexed by mesh.Direction (0..7 are in-plane)
	fbuf        [mesh.NumDirections]dsd.Desc
}

// scratchColumns is the kernel's intermediate-column count: the 13
// intermediates share five columns with the §5.3.1 reuse optimization (a
// value is overwritten only once it is dead) and have one each without.
func scratchColumns(bufferReuse bool) int {
	if bufferReuse {
		return 5
	}
	return 13
}

// WordsPerZ returns the per-PE memory footprint per mesh layer for the given
// options — the wse.MachineSpec.MaxNz input.
func WordsPerZ(bufferReuse bool) int {
	// 2 padded own columns + res + 10 trans + 16 nbr + 10 fbuf + scratch.
	return 2 + 1 + 10 + 16 + 10 + scratchColumns(bufferReuse)
}

// FixedWords is the Z-independent part of the footprint (the pad cells).
const FixedWords = 4

// flatWordsPerZ is the per-layer part of a peState: 2 padded own columns,
// res and 10 trans.
const flatWordsPerZ = 2 + 1 + 10

// layout lays out one PE's peState columns; it reads nothing from the mesh
// (the band-wide loaders do). The engine's memory must be freshly allocated
// (descriptors are laid out from offset 0).
func (s *peState) layout(eng *dsd.Engine, dims mesh.Dims, fl physics.Fluid, x, y int, opts Options) error {
	nz := dims.Nz
	c := fl.Constants32()
	*s = peState{
		eng:    eng,
		opts:   opts,
		consts: dsd.FluxConsts{AHat: c.AHat, CHat: c.CHat, NegC: c.NegC, InvMu: c.InvMu},
		x:      x,
		y:      y,
		nz:     nz,
		dims:   dims,
	}
	blk, err := eng.Mem.Alloc(flatWordsPerZ*nz + FixedWords)
	if err != nil {
		return fmt.Errorf("core: PE(%d,%d) laying out its columns: %w", x, y, err)
	}
	s.pPad, s.gzPad = blk.MustSlice(0, nz+2), blk.MustSlice(nz+2, nz+2)
	s.p, s.gz = s.pPad.MustSlice(1, nz), s.gzPad.MustSlice(1, nz)
	s.res = blk.MustSlice(2*nz+4, nz)
	for d := range s.trans {
		s.trans[d] = blk.MustSlice((3+d)*nz+4, nz)
	}
	for i, d := range xyDirections {
		dx, dy, _ := d.Offset()
		nx, ny := x+dx, y+dy
		s.hasNbr[i] = nx >= 0 && nx < dims.Nx && ny >= 0 && ny < dims.Ny
	}
	return nil
}

// layout lays out the fabric engine's columns after own's, which layout has
// laid out.
func (s *fabricPE) layout(own *peState) error {
	s.peState = own
	nz := s.nz
	blk, err := s.eng.Mem.Alloc((WordsPerZ(s.opts.BufferReuse) - flatWordsPerZ) * nz)
	if err != nil {
		return fmt.Errorf("core: PE(%d,%d) laying out the fabric engine's buffers: %w", s.x, s.y, err)
	}
	for i := range s.nbrP {
		s.nbrP[i], s.nbrGz[i] = blk.MustSlice(2*i*nz, nz), blk.MustSlice((2*i+1)*nz, nz)
	}
	for d := range s.fbuf {
		s.fbuf[d] = blk.MustSlice((16+d)*nz, nz)
	}
	return nil
}

// view is the host's view of one of the PE's columns (uncounted — the host
// runtime's memcpy analog reads and writes through it).
func (s *peState) view(d dsd.Desc) []float32 { return s.eng.Mem.HostView(d) }

// residual is the host's view of the PE's residual column.
func (s *peState) residual() []float32 { return s.view(s.res) }

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
// it goes straight into the PE's pressure column, which is also what every
// neighbor reads as this PE's send column.
func (s *peState) perturb(app int) {
	mesh.PerturbColumn32(s.view(s.p), app, s.globalIndex(0), s.dims.Nx*s.dims.Ny, mesh.PerturbAmplitude)
	s.refreshGhosts()
}

// sendColumn fills send with the PE's serialized (pressure, gravity) body
// columns: the Nz pressure words followed by the Nz gravity words — the
// paper's "local block of data of length Nz × 2" (§5.2.1) the fabric engine
// sends.
func (s *peState) sendColumn(send []float32) []float32 {
	copy(send, s.view(s.p))
	copy(send[s.nz:], s.view(s.gz))
	return send
}

// receiveColumn stores an arrived 2·Nz column into the direction's neighbor
// buffers (FMOV: fabric load + memory store per element).
func (s *fabricPE) receiveColumn(dirIdx int, data []float32) error {
	if len(data) != 2*s.nz {
		return fmt.Errorf("core: PE(%d,%d) received %d words for %s, want %d",
			s.x, s.y, len(data), xyDirections[dirIdx], 2*s.nz)
	}
	s.eng.MovRecv(s.nbrP[dirIdx], data[:s.nz])
	s.eng.MovRecv(s.nbrGz[dirIdx], data[s.nz:])
	return nil
}
