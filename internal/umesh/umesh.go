// Package umesh implements the paper's §9 future work: "supporting
// arbitrary mesh topologies ... to enable porting of a broader range of FV
// applications". It provides a general unstructured finite-volume mesh
// (cells + faces + adjacency, arbitrary degree), three builders (conversion
// from the structured mesh, a geometry-jittered grid, and a radial
// well-centered mesh whose refinement rings give cells irregular neighbor
// counts), the TPFA flux computation in both face-based and cell-based
// sweeps, and a compiled partition (Layout): recursive coordinate bisection,
// compact per-part renumbering (owned + halo cells only), and message-passing
// halo exchange through send plans precompiled into flat direct-write index
// arrays
// — the layer "usually implemented with MPI" (§4), executed on the shared
// shard-pool runtime (internal/exec) the structured sharded engine also runs
// on. Two runtimes stand on a Layout and add only their resident fields. The
// first is PartEngine, the persistent float32 residual engine: its
// partitioned residual is bit-identical to the serial cell-based sweep for
// every part and worker count; tests assert it, including under the race
// detector.
//
// The second is the §8 matrix-free implicit path, run
// part-resident: USystem (one frozen backward-Euler pressure step) and
// PartOperator, a solver.ProgramSpace that keeps the whole Krylov working
// set in each part's compact layout for the entire solve — one scatter in,
// one gather out, and in between compiled phase programs (one exec.Plan
// dispatch per Krylov iteration): a float64 halo push step, then one sweep
// over every owned row per application, fused vector/reduction steps.
// Reductions fold through the canonical blocked order (CanonicalOrder, the
// RCB recursion's own summation tree), which is identical for every part
// count and for the serial reference, so RunTransientPartitioned (one
// preconditioned Krylov solve per time step) is bit-identical to the serial
// reference — residual histories, iteration counts, final state — for every
// RCB part count (at most MaxParts; no other partition is accepted) and
// worker count; the golden regression asserts it under -race.
//
// A preconditioner ladder (solver.PrecondKind) runs resident under the same
// contract: Jacobi, Chebyshev polynomial smoothing (fixed-degree
// polynomial of the Jacobi-scaled operator, Gershgorin-bounded spectrum),
// and an aggregation AMG whose hierarchy — greedy in-block aggregation,
// reverse Cuthill–McKee renumbering, the Galerkin matrix A_c, the same
// aggregation of A_c's graph and its Galerkin matrix Cholesky-factored in a
// skyline of Lᵀ, for a coarse correction that is a two-grid cycle on A_c —
// is built once per USystem and reused across transient steps, as is the
// diagonal every rung scales by (USystem.Diagonal; no caller hands one in).
// Every rung's arithmetic is a function of the canonical order only,
// never of the partitioning, and the serial reference rungs are built from
// the same kernels, so each rung preserves the bit-identity guarantee at
// every part count.
// PartOperator.SetPrecond installs a rung and emitPrecond compiles its step
// sequence into the programs; referenceRung is its serial oracle.
package umesh

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mesh"
	"repro/internal/refflux"
)

// Face is one interior face: the two cells it connects and its
// transmissibility. Boundary faces are simply absent (no-flow).
type Face struct {
	A, B  int
	Trans float64
}

// Mesh is an unstructured finite-volume mesh.
type Mesh struct {
	NumCells int
	// Volume and Elev are per-cell geometric properties (Elev is the
	// gravity-coefficient input, z increasing upward).
	Volume, Elev []float64
	// Porosity is the per-cell porosity φ of the accumulation term
	// (FromStructured copies the structured mesh's), or nil for a mesh
	// without one, such as a radial mesh, whose systems take a constant
	// (NewUSystem).
	Porosity []float64
	// Centroid is the cell-center position (x, y, z), used by partitioners.
	Centroid [][3]float64
	// Faces lists each interior face exactly once.
	Faces []Face

	// adjacency: per cell, the incident faces as (neighbor, trans).
	adjNbr   [][]int32
	adjTrans [][]float64

	// canonMu guards canon, the cached canonical RCB order (see
	// CanonicalOrder). Builders and mutators invalidate it through
	// buildAdjacency.
	canonMu sync.Mutex
	canon   []int32
}

// halfFaces returns the cell's (neighbor, trans) lists.
func (u *Mesh) halfFaces(c int) ([]int32, []float64) { return u.adjNbr[c], u.adjTrans[c] }

// Degree returns a cell's neighbor count.
func (u *Mesh) Degree(c int) int { return len(u.adjNbr[c]) }

// MaxDegree returns the largest neighbor count — >6 (or >10) demonstrates
// genuinely irregular topology.
func (u *Mesh) MaxDegree() int {
	mx := 0
	for c := 0; c < u.NumCells; c++ {
		if d := u.Degree(c); d > mx {
			mx = d
		}
	}
	return mx
}

// Validate checks structural invariants.
func (u *Mesh) Validate() error {
	if u.NumCells <= 0 {
		return fmt.Errorf("umesh: no cells")
	}
	for _, s := range [][]float64{u.Volume, u.Elev} {
		if len(s) != u.NumCells {
			return fmt.Errorf("umesh: field length %d != cells %d", len(s), u.NumCells)
		}
	}
	if u.Porosity != nil && len(u.Porosity) != u.NumCells {
		return fmt.Errorf("umesh: porosity length %d != cells %d", len(u.Porosity), u.NumCells)
	}
	if len(u.Centroid) != u.NumCells {
		return fmt.Errorf("umesh: centroid length %d != cells %d", len(u.Centroid), u.NumCells)
	}
	// A NaN or infinite coordinate leaves the bisection order undefined.
	for c, x := range u.Centroid {
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("umesh: cell %d has non-finite centroid %v", c, x)
			}
		}
	}
	for i, f := range u.Faces {
		if f.A < 0 || f.A >= u.NumCells || f.B < 0 || f.B >= u.NumCells || f.A == f.B {
			return fmt.Errorf("umesh: face %d connects invalid cells (%d, %d)", i, f.A, f.B)
		}
		if f.Trans < 0 || math.IsNaN(f.Trans) || math.IsInf(f.Trans, 1) {
			return fmt.Errorf("umesh: face %d has invalid transmissibility %g", i, f.Trans)
		}
	}
	return nil
}

// buildAdjacency derives the per-cell half-face lists from Faces, in face
// order: it counts degrees, slices one backing array per field with
// capacity = degree, then fills the slices. It also invalidates the cached
// canonical order: every builder and mutator ends here, so geometry changes
// can never leave a stale order behind.
func (u *Mesh) buildAdjacency() {
	u.canonMu.Lock()
	u.canon = nil
	u.canonMu.Unlock()
	deg := make([]int, u.NumCells)
	for _, f := range u.Faces {
		deg[f.A]++
		deg[f.B]++
	}
	nbr, trans := make([]int32, 2*len(u.Faces)), make([]float64, 2*len(u.Faces))
	u.adjNbr = make([][]int32, u.NumCells)
	u.adjTrans = make([][]float64, u.NumCells)
	off := 0
	for c, d := range deg {
		u.adjNbr[c] = nbr[off : off : off+d]
		u.adjTrans[c] = trans[off : off : off+d]
		off += d
	}
	for _, f := range u.Faces {
		u.adjNbr[f.A] = append(u.adjNbr[f.A], int32(f.B))
		u.adjTrans[f.A] = append(u.adjTrans[f.A], f.Trans)
		u.adjNbr[f.B] = append(u.adjNbr[f.B], int32(f.A))
		u.adjTrans[f.B] = append(u.adjTrans[f.B], f.Trans)
	}
}

// FromStructured converts a structured mesh (with the chosen face set) to
// the unstructured representation; residuals must match refflux exactly. The
// cells keep the structured numbering and porosity, so a system built on the
// result is the structured mesh's own.
func FromStructured(m *mesh.Mesh, faces refflux.FaceSet) (*Mesh, error) {
	d := m.Dims
	u := &Mesh{
		NumCells: d.Cells(),
		Volume:   make([]float64, d.Cells()),
		Elev:     append([]float64(nil), m.Elev...),
		Porosity: append([]float64(nil), m.Porosity...),
		Centroid: make([][3]float64, d.Cells()),
	}
	vol := m.Spacing.Dx * m.Spacing.Dy * m.Spacing.Dz
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				k := m.Index(x, y, z)
				u.Volume[k] = vol
				u.Centroid[k] = [3]float64{
					(float64(x) + 0.5) * m.Spacing.Dx,
					(float64(y) + 0.5) * m.Spacing.Dy,
					m.Elev[k],
				}
				for _, dir := range faces.Directions() {
					l, ok := m.Neighbor(x, y, z, dir)
					if !ok || l < k {
						continue // each face once, from the lower-index side
					}
					if t := m.Trans[dir][k]; t != 0 {
						u.Faces = append(u.Faces, Face{A: k, B: l, Trans: t})
					}
				}
			}
		}
	}
	u.buildAdjacency()
	return u, u.Validate()
}

// Jitter perturbs the mesh geometry: cell centroids move by up to frac of
// the local spacing (deterministic, seeded) and every face transmissibility
// is rescaled by the distorted center-to-center distance — an irregular-
// geometry mesh with the original topology.
func (u *Mesh) Jitter(frac float64, seed uint64) error {
	if frac < 0 || frac >= 0.5 {
		return fmt.Errorf("umesh: jitter fraction %g outside [0, 0.5)", frac)
	}
	state := seed
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11)/float64(1<<53)*2 - 1 // [-1, 1)
	}
	// Reference distance per face before jitter.
	oldDist := make([]float64, len(u.Faces))
	for i, f := range u.Faces {
		oldDist[i] = dist(u.Centroid[f.A], u.Centroid[f.B])
	}
	// Move centroids by frac of the shortest incident face distance.
	for c := 0; c < u.NumCells; c++ {
		minD := math.Inf(1)
		for i, f := range u.Faces {
			if f.A == c || f.B == c {
				if oldDist[i] < minD {
					minD = oldDist[i]
				}
			}
		}
		if math.IsInf(minD, 1) {
			continue // isolated cell
		}
		for k := 0; k < 3; k++ {
			u.Centroid[c][k] += frac * minD * next()
		}
		u.Elev[c] = u.Centroid[c][2]
	}
	// Rescale transmissibilities: T ∝ 1/d.
	for i := range u.Faces {
		f := &u.Faces[i]
		nd := dist(u.Centroid[f.A], u.Centroid[f.B])
		if nd <= 0 {
			return fmt.Errorf("umesh: jitter collapsed face %d", i)
		}
		f.Trans *= oldDist[i] / nd
	}
	u.buildAdjacency()
	return u.Validate()
}

func dist(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// RadialOptions sizes the well-centered radial mesh.
type RadialOptions struct {
	// Rings is the ring count; BaseSectors the innermost ring's cell count.
	Rings, BaseSectors int
	// RefineEvery doubles the sector count every k rings (0 disables);
	// refinement boundaries create cells with five+ neighbors — genuinely
	// irregular topology.
	RefineEvery int
	// R0 and DR are the inner radius and ring thickness in meters; Dz the
	// layer thickness; PermMD the permeability in millidarcy.
	R0, DR, Dz, PermMD float64
}

// DefaultRadialOptions returns a near-well grid.
func DefaultRadialOptions() RadialOptions {
	return RadialOptions{Rings: 8, BaseSectors: 8, RefineEvery: 3, R0: 1, DR: 5, Dz: 5, PermMD: 200}
}

// NewRadialMesh builds a single-layer radial mesh around a well. Ring i has
// S_i sectors; when S_{i+1} = 2·S_i each outer pair shares its inner cell,
// so inner-ring cells at refinement boundaries have two outer neighbors.
func NewRadialMesh(opts RadialOptions) (*Mesh, error) {
	if opts.Rings < 2 || opts.BaseSectors < 3 {
		return nil, fmt.Errorf("umesh: radial mesh needs ≥2 rings and ≥3 sectors, got %d/%d", opts.Rings, opts.BaseSectors)
	}
	if opts.R0 <= 0 || opts.DR <= 0 || opts.Dz <= 0 || opts.PermMD <= 0 {
		return nil, fmt.Errorf("umesh: radial geometry must be positive: %+v", opts)
	}
	perm := opts.PermMD * 9.869233e-16
	sectors := make([]int, opts.Rings)
	sectors[0] = opts.BaseSectors
	for i := 1; i < opts.Rings; i++ {
		sectors[i] = sectors[i-1]
		if opts.RefineEvery > 0 && i%opts.RefineEvery == 0 {
			sectors[i] *= 2
		}
	}
	start := make([]int, opts.Rings+1)
	for i := 0; i < opts.Rings; i++ {
		start[i+1] = start[i] + sectors[i]
	}
	u := &Mesh{NumCells: start[opts.Rings]}
	u.Volume = make([]float64, u.NumCells)
	u.Elev = make([]float64, u.NumCells)
	u.Centroid = make([][3]float64, u.NumCells)

	for i := 0; i < opts.Rings; i++ {
		rIn := opts.R0 + float64(i)*opts.DR
		rOut := rIn + opts.DR
		rMid := (rIn + rOut) / 2
		ringArea := math.Pi * (rOut*rOut - rIn*rIn)
		for s := 0; s < sectors[i]; s++ {
			c := start[i] + s
			theta := (float64(s) + 0.5) / float64(sectors[i]) * 2 * math.Pi
			u.Centroid[c] = [3]float64{rMid * math.Cos(theta), rMid * math.Sin(theta), -1500}
			u.Elev[c] = -1500
			u.Volume[c] = ringArea / float64(sectors[i]) * opts.Dz
		}
	}
	// Within-ring faces (periodic).
	for i := 0; i < opts.Rings; i++ {
		rIn := opts.R0 + float64(i)*opts.DR
		area := opts.DR * opts.Dz
		arc := 2 * math.Pi * (rIn + opts.DR/2) / float64(sectors[i])
		t := perm * area / arc
		for s := 0; s < sectors[i]; s++ {
			a := start[i] + s
			b := start[i] + (s+1)%sectors[i]
			u.Faces = append(u.Faces, Face{A: a, B: b, Trans: t})
		}
	}
	// Between-ring faces (1:1 or 1:2 at refinements).
	for i := 0; i+1 < opts.Rings; i++ {
		rOut := opts.R0 + float64(i+1)*opts.DR
		for s := 0; s < sectors[i]; s++ {
			inner := start[i] + s
			ratio := sectors[i+1] / sectors[i]
			for k := 0; k < ratio; k++ {
				outer := start[i+1] + s*ratio + k
				arc := 2 * math.Pi * rOut / float64(sectors[i+1])
				t := perm * arc * opts.Dz / opts.DR
				u.Faces = append(u.Faces, Face{A: inner, B: outer, Trans: t})
			}
		}
	}
	u.buildAdjacency()
	return u, u.Validate()
}

// WellIndex returns the cell closest to the well (ring 0, sector 0).
func (u *Mesh) WellIndex() int { return 0 }
