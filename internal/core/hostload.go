package core

import (
	"repro/internal/mesh"
	"repro/internal/physics"
)

// This file is the host side of an engine run: the band-wide loaders that
// move mesh-layout float64 fields into the PEs' float32 columns (H2D) and the
// residual back (D2H). Both engines use them — the fabric engine with the
// whole grid as one band. A band is never empty.

// tileWidth is the number of x-adjacent PEs the host loaders serve together:
// eight float64s, one 64-byte cache line. Plane z of a tile is then the
// consecutive cells from the tile's first + z·Nx·Ny — one line of a float64
// field, fetched once and used whole, while the only column lines live are
// the tile's. A per-PE gather uses 8 bytes of every 64 it fetches, and a
// sweep over a whole row keeps more column lines live than the cache sets PE
// memories share can hold.
const tileWidth = 8

// hoistTile returns the tile that starts at PE t of a row-major band —
// tileWidth PEs on, or up to the end of t's grid row — with its column views
// view(pe) hoisted into views, and the mesh index of its first cell.
func hoistTile(band []peState, t int, view func(s *peState) []float32, views *[tileWidth][]float32) (cols [][]float32, first int) {
	nx := band[0].dims.Nx
	tile := band[t:min(t+tileWidth, (t/nx+1)*nx)]
	cols = views[:len(tile)]
	for k := range cols {
		cols[k] = view(&tile[k])
	}
	return cols, tile[0].globalIndex(0)
}

// loadField is the band-wide host load (H2D) of one mesh-layout float64
// field: every PE's float32 column dst(pe) receives scale·src narrowed over
// the PE's Z column (every Nx·Ny-th cell from (x, y)), tile by tile. scale
// is 1 for a field that is only narrowed; the product is exact then.
func loadField(band []peState, src []float64, scale float64, dst func(s *peState) []float32) {
	d := band[0].dims
	var views [tileWidth][]float32
	for t := 0; t < len(band); {
		cols, first := hoistTile(band, t, dst, &views)
		loadTile(cols, src[first:], d.Nx*d.Ny, d.Nz, scale)
		t += len(cols)
	}
}

// loadTile fills the tile's columns from nz planes of src, plane apart. It is
// kept out of line: inlined into loadField's tile walk the same loop ran a
// third slower (2.8 against 1.8 ms for the ten Υ fields of 24×24×246).
//
//go:noinline
func loadTile(cols [][]float32, src []float64, plane, nz int, scale float64) {
	for z := 0; z < nz; z++ {
		line := src[z*plane:][:len(cols)]
		for k, col := range cols {
			col[z] = float32(scale * line[k])
		}
	}
}

// storeField is loadField in reverse (D2H): it scatters every PE's float32
// column src(pe) into the mesh-layout field dst in the same tile order, so
// every destination line is written whole while it is resident.
func storeField(band []peState, dst []float32, src func(s *peState) []float32) {
	d := band[0].dims
	var views [tileWidth][]float32
	for t := 0; t < len(band); {
		cols, first := hoistTile(band, t, src, &views)
		storeTile(dst[first:], cols, d.Nx*d.Ny, d.Nz)
		t += len(cols)
	}
}

// storeTile is loadTile in reverse.
//
//go:noinline
func storeTile(dst []float32, cols [][]float32, plane, nz int) {
	for z := 0; z < nz; z++ {
		line := dst[z*plane:][:len(cols)]
		for k, col := range cols {
			line[k] = col[z]
		}
	}
}

// loadStatic loads what a band's PEs keep for the engine's lifetime: the
// gravity column g·z (own copy, send half, missing-neighbor mirrors) and the
// transmissibility columns of every face the options enable.
func loadStatic(band []peState, m *mesh.Mesh, fl physics.Fluid, opts Options) {
	loadField(band, m.Elev, fl.Gravity, func(s *peState) []float32 { return s.sendBuf[s.nz:] })
	for i := range band {
		s := &band[i]
		gzCol := s.sendBuf[s.nz:]
		s.hostWrite(s.gz, gzCol)
		s.refreshGhosts()
		for k, has := range s.hasNbr {
			if !has {
				s.hostWrite(s.nbrGz[k], gzCol)
			}
		}
	}
	for _, d := range mesh.AllDirections {
		if !opts.Diagonals && d.IsDiagonal() {
			continue // no engine reads a diagonal Υ with diagonals off
		}
		loadField(band, m.Trans[d], 1, func(s *peState) []float32 { return s.eng.Mem.HostView(s.trans[d]) })
	}
}

// loadPressure loads a mesh-layout pressure field into a band's PEs: the
// send half, the own column with its ghost cells, and the missing-neighbor
// buffers. Mirroring own data into those keeps every intermediate finite;
// with Υ = 0 on boundary faces the values are inert.
func loadPressure(band []peState, p []float64) {
	loadField(band, p, 1, func(s *peState) []float32 { return s.sendBuf[:s.nz] })
	for i := range band {
		s := &band[i]
		pCol := s.sendBuf[:s.nz]
		s.hostWrite(s.p, pCol)
		s.refreshGhosts()
		for k, has := range s.hasNbr {
			if !has {
				s.hostWrite(s.nbrP[k], pCol)
			}
		}
	}
}
