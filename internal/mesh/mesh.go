// Package mesh provides the 3D Cartesian mesh, its cell fields, the
// two-point-flux transmissibilities (cardinal, vertical and diagonal faces),
// and deterministic synthetic geomodels used by the experiments.
//
// Layout convention (paper §6): the X dimension is innermost and Z is
// outermost in linear memory, i.e. Index(x,y,z) = z·Nx·Ny + y·Nx + x. The
// dataflow mapping (paper §5.1) assigns the whole Z column of a cell (x, y)
// to PE (x, y).
package mesh

import (
	"fmt"
)

// Direction enumerates the ten face directions of a cell: four cardinal
// in-plane neighbors, four in-plane diagonals, and the two vertical
// neighbors. The in-plane directions use compass names matching the fabric's
// link names (paper Fig. 2): north is −Y, south is +Y, east is +X, west is −X.
type Direction int

const (
	West  Direction = iota // −X
	East                   // +X
	North                  // −Y
	South                  // +Y
	NorthWest
	NorthEast
	SouthWest
	SouthEast
	Down // −Z (toward shallower index)
	Up   // +Z
	NumDirections
)

var directionNames = [NumDirections]string{
	"west", "east", "north", "south",
	"northwest", "northeast", "southwest", "southeast",
	"down", "up",
}

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d < 0 || d >= NumDirections {
		return fmt.Sprintf("Direction(%d)", int(d))
	}
	return directionNames[d]
}

// Offset returns the (dx, dy, dz) index offset of the neighbor in direction d.
func (d Direction) Offset() (dx, dy, dz int) {
	switch d {
	case West:
		return -1, 0, 0
	case East:
		return 1, 0, 0
	case North:
		return 0, -1, 0
	case South:
		return 0, 1, 0
	case NorthWest:
		return -1, -1, 0
	case NorthEast:
		return 1, -1, 0
	case SouthWest:
		return -1, 1, 0
	case SouthEast:
		return 1, 1, 0
	case Down:
		return 0, 0, -1
	case Up:
		return 0, 0, 1
	default:
		panic(fmt.Sprintf("mesh: invalid direction %d", int(d)))
	}
}

// Opposite returns the direction from the neighbor back to the cell.
func (d Direction) Opposite() Direction {
	switch d {
	case West:
		return East
	case East:
		return West
	case North:
		return South
	case South:
		return North
	case NorthWest:
		return SouthEast
	case NorthEast:
		return SouthWest
	case SouthWest:
		return NorthEast
	case SouthEast:
		return NorthWest
	case Down:
		return Up
	case Up:
		return Down
	default:
		panic(fmt.Sprintf("mesh: invalid direction %d", int(d)))
	}
}

// IsDiagonal reports whether d is one of the four in-plane diagonals.
func (d Direction) IsDiagonal() bool {
	return d == NorthWest || d == NorthEast || d == SouthWest || d == SouthEast
}

// DiagonalDirections lists the in-plane diagonal directions in a fixed order.
var DiagonalDirections = [4]Direction{NorthWest, NorthEast, SouthWest, SouthEast}

// AllDirections lists all ten directions in enum order.
var AllDirections = [NumDirections]Direction{
	West, East, North, South,
	NorthWest, NorthEast, SouthWest, SouthEast,
	Down, Up,
}

// Dims describes the cell counts of a Cartesian mesh.
type Dims struct {
	Nx, Ny, Nz int
}

// Cells returns the total number of cells.
func (d Dims) Cells() int { return d.Nx * d.Ny * d.Nz }

// Validate reports an error for non-positive dimensions.
func (d Dims) Validate() error {
	if d.Nx <= 0 || d.Ny <= 0 || d.Nz <= 0 {
		return fmt.Errorf("mesh: dimensions must be positive, got %dx%dx%d", d.Nx, d.Ny, d.Nz)
	}
	return nil
}

// String implements fmt.Stringer.
func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.Nx, d.Ny, d.Nz) }

// Spacing holds the physical cell sizes in meters.
type Spacing struct {
	Dx, Dy, Dz float64
}

// DefaultSpacing is a typical geomodel resolution (meters).
func DefaultSpacing() Spacing { return Spacing{Dx: 50, Dy: 50, Dz: 5} }

// Mesh is a 3D Cartesian mesh with per-cell fields and per-face
// transmissibilities. Fields are stored X-innermost, Z-outermost.
type Mesh struct {
	Dims    Dims
	Spacing Spacing

	// Pressure is the cell pressure in Pa (float64 master copy; engines
	// consume the float32 view from Pressure32).
	Pressure []float64
	// Perm is the scalar permeability κ in m².
	Perm []float64
	// Elev is the cell-center elevation z in m, increasing upward (the
	// paper's Eq. 3b sign convention: ΔΦ = pL − pK + ρ·g·(zL − zK) vanishes
	// for a hydrostatic column only when z is height). Cells at depth carry
	// negative elevations.
	Elev []float64
	// Porosity φ: the flux kernel does not read it; the transient
	// simulators' accumulation term does, per cell.
	Porosity []float64

	// Trans holds the ten per-cell face transmissibilities:
	// Trans[d][cell] is Υ for the face between cell and its neighbor in
	// direction d, with Trans[d][K] == Trans[opp(d)][L] exactly (antisymmetry
	// of the flux depends on it). Boundary faces carry Υ = 0 (no-flow).
	Trans [NumDirections][]float64
}

// New allocates a mesh with all fields zeroed and all transmissibilities
// unset. Most callers want Build* constructors from geomodel.go instead.
func New(d Dims, s Spacing) (*Mesh, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if s.Dx <= 0 || s.Dy <= 0 || s.Dz <= 0 {
		return nil, fmt.Errorf("mesh: spacings must be positive, got %+v", s)
	}
	n := d.Cells()
	m := &Mesh{
		Dims:     d,
		Spacing:  s,
		Pressure: make([]float64, n),
		Perm:     make([]float64, n),
		Elev:     make([]float64, n),
		Porosity: make([]float64, n),
	}
	for dir := range m.Trans {
		m.Trans[dir] = make([]float64, n)
	}
	return m, nil
}

// Index maps (x, y, z) to the linear cell index (X innermost, Z outermost).
func (m *Mesh) Index(x, y, z int) int {
	return (z*m.Dims.Ny+y)*m.Dims.Nx + x
}

// InBounds reports whether (x, y, z) is a valid cell coordinate.
func (m *Mesh) InBounds(x, y, z int) bool {
	return x >= 0 && x < m.Dims.Nx && y >= 0 && y < m.Dims.Ny && z >= 0 && z < m.Dims.Nz
}

// Neighbor returns the linear index of the neighbor of (x,y,z) in direction d
// and whether it exists (false at mesh boundaries).
func (m *Mesh) Neighbor(x, y, z int, d Direction) (int, bool) {
	dx, dy, dz := d.Offset()
	nx, ny, nz := x+dx, y+dy, z+dz
	if !m.InBounds(nx, ny, nz) {
		return 0, false
	}
	return m.Index(nx, ny, nz), true
}

// Pressure32 returns the pressure field narrowed to float32 (fresh slice),
// the form loaded into PE memories and GPU device memory.
func (m *Mesh) Pressure32() []float32 { return to32(m.Pressure) }

// GravityElev32 returns g·z per cell in float32 — the "gravity coefficient"
// the PEs exchange over the fabric (paper §5.1).
func (m *Mesh) GravityElev32(g float64) []float32 {
	out := make([]float32, len(m.Elev))
	for i, z := range m.Elev {
		out[i] = float32(g * z)
	}
	return out
}

// Trans32 returns direction d's transmissibilities narrowed to float32.
func (m *Mesh) Trans32(d Direction) []float32 { return to32(m.Trans[d]) }

func to32(in []float64) []float32 {
	out := make([]float32, len(in))
	for i, v := range in {
		out[i] = float32(v)
	}
	return out
}
