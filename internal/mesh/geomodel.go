package mesh

import (
	"fmt"
	"math"

	"repro/internal/cpufeat"
	"repro/internal/units"
)

// rng is a small deterministic splitmix64 generator so that geomodels are
// reproducible byte-for-byte across platforms and Go releases.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *rng) Float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// NormFloat64 returns a standard normal deviate (Box–Muller; deterministic).
func (r *rng) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// GeoModel selects one of the synthetic geomodel builders.
type GeoModel int

const (
	// GeoUniform: homogeneous permeability, flat structure, uniform pressure.
	GeoUniform GeoModel = iota
	// GeoLayered: horizontal permeability layers with strong contrasts
	// (sand/shale sequences), flat structure, hydrostatic pressure.
	GeoLayered
	// GeoCCS: the full synthetic storage-site model — layered lognormal
	// permeability, anticline structure, hydrostatic pressure plus an
	// injection-well overpressure anomaly. Used by the experiments.
	GeoCCS
)

// String implements fmt.Stringer.
func (g GeoModel) String() string {
	switch g {
	case GeoUniform:
		return "uniform"
	case GeoLayered:
		return "layered"
	case GeoCCS:
		return "ccs"
	default:
		return fmt.Sprintf("GeoModel(%d)", int(g))
	}
}

// GeoOptions parameterizes the synthetic builders.
type GeoOptions struct {
	Model GeoModel
	// Seed drives all stochastic heterogeneity; identical seeds give
	// identical models.
	Seed uint64
	// TopDepth is the depth of the shallowest cell layer in meters.
	TopDepth float64
	// BasePermMD is the background permeability in millidarcy.
	BasePermMD float64
	// PermLogStd is the lognormal standard deviation (natural log) of the
	// heterogeneity applied in GeoCCS.
	PermLogStd float64
	// LayerCount is the number of permeability layers for GeoLayered/GeoCCS.
	LayerCount int
	// AnticlineAmp is the crest height of the anticline in meters (GeoCCS).
	AnticlineAmp float64
	// SurfacePressure is the pressure at zero depth in Pa.
	SurfacePressure float64
	// FluidDensity is the hydrostatic column density used to initialize
	// pressure (kg/m³).
	FluidDensity float64
	// WellOverpressure is the injection anomaly amplitude in Pa (GeoCCS).
	WellOverpressure float64
	// Diagonal transmissibility options.
	Trans TransOptions
}

// DefaultGeoOptions returns the configuration used by the experiments: a CCS
// storage model at ~1.5 km depth with realistic property ranges.
func DefaultGeoOptions() GeoOptions {
	return GeoOptions{
		Model:            GeoCCS,
		Seed:             0x5C2023,
		TopDepth:         1500,
		BasePermMD:       200,
		PermLogStd:       0.8,
		LayerCount:       8,
		AnticlineAmp:     40,
		SurfacePressure:  1.013e5,
		FluidDensity:     1000, // brine column controls initial pressure
		WellOverpressure: 2e6,  // 20 bar injection overpressure
		Trans:            DefaultTransOptions(),
	}
}

// Build constructs a mesh with the selected geomodel and assembled
// transmissibilities.
func Build(d Dims, s Spacing, opts GeoOptions) (*Mesh, error) {
	m, err := New(d, s)
	if err != nil {
		return nil, err
	}
	switch opts.Model {
	case GeoUniform:
		buildUniform(m, opts)
	case GeoLayered:
		buildLayered(m, opts)
	case GeoCCS:
		buildCCS(m, opts)
	default:
		return nil, fmt.Errorf("mesh: unknown geomodel %d", int(opts.Model))
	}
	if err := m.ComputeTransmissibilities(opts.Trans); err != nil {
		return nil, err
	}
	return m, nil
}

// BuildDefault is Build with DefaultGeoOptions and DefaultSpacing — the
// one-liner behind fvsim and the facade's BuildMesh.
func BuildDefault(d Dims) (*Mesh, error) {
	return Build(d, DefaultSpacing(), DefaultGeoOptions())
}

func buildUniform(m *Mesh, opts GeoOptions) {
	perm := units.FromMilliDarcy(opts.BasePermMD)
	for z := 0; z < m.Dims.Nz; z++ {
		depth := opts.TopDepth + (float64(z)+0.5)*m.Spacing.Dz
		for y := 0; y < m.Dims.Ny; y++ {
			for x := 0; x < m.Dims.Nx; x++ {
				i := m.Index(x, y, z)
				m.Perm[i] = perm
				m.Elev[i] = -depth
				m.Porosity[i] = 0.2
				m.Pressure[i] = units.HydrostaticPressure(opts.SurfacePressure, opts.FluidDensity, depth)
			}
		}
	}
}

func buildLayered(m *Mesh, opts GeoOptions) {
	layers := opts.LayerCount
	if layers < 1 {
		layers = 1
	}
	r := newRNG(opts.Seed)
	layerPerm := make([]float64, layers)
	layerPhi := make([]float64, layers)
	for l := range layerPerm {
		// Alternate sand-like and shale-like layers with a 100x contrast.
		contrast := 1.0
		if l%2 == 1 {
			contrast = 0.01
		}
		layerPerm[l] = units.FromMilliDarcy(opts.BasePermMD * contrast * (0.5 + r.Float64()))
		layerPhi[l] = 0.08 + 0.18*r.Float64()
	}
	for z := 0; z < m.Dims.Nz; z++ {
		l := z * layers / m.Dims.Nz
		depth := opts.TopDepth + (float64(z)+0.5)*m.Spacing.Dz
		for y := 0; y < m.Dims.Ny; y++ {
			for x := 0; x < m.Dims.Nx; x++ {
				i := m.Index(x, y, z)
				m.Perm[i] = layerPerm[l]
				m.Elev[i] = -depth
				m.Porosity[i] = layerPhi[l]
				m.Pressure[i] = units.HydrostaticPressure(opts.SurfacePressure, opts.FluidDensity, depth)
			}
		}
	}
}

func buildCCS(m *Mesh, opts GeoOptions) {
	buildLayered(m, opts)
	r := newRNG(opts.Seed ^ 0xCC5)
	nx, ny := float64(m.Dims.Nx), float64(m.Dims.Ny)
	// Anticline: dome centered in the X-Y plane lifts the structure, so the
	// cell-center elevation varies per column (gravity term becomes active in
	// the in-plane fluxes, including diagonals).
	for z := 0; z < m.Dims.Nz; z++ {
		for y := 0; y < m.Dims.Ny; y++ {
			for x := 0; x < m.Dims.Nx; x++ {
				i := m.Index(x, y, z)
				cx := (float64(x)+0.5)/nx - 0.5
				cy := (float64(y)+0.5)/ny - 0.5
				lift := opts.AnticlineAmp * math.Exp(-8*(cx*cx+cy*cy))
				m.Elev[i] += lift // crest is shallower: elevation increases
				// Lognormal heterogeneity on top of the layer value.
				m.Perm[i] *= math.Exp(opts.PermLogStd * r.NormFloat64())
				// Re-derive hydrostatic pressure at the lifted depth.
				m.Pressure[i] = units.HydrostaticPressure(opts.SurfacePressure, opts.FluidDensity, -m.Elev[i])
			}
		}
	}
	// Injection well: Gaussian overpressure around a column in the dome flank,
	// strongest at the bottom perforations.
	wx := m.Dims.Nx / 3
	wy := m.Dims.Ny / 3
	for z := 0; z < m.Dims.Nz; z++ {
		zfrac := float64(z+1) / float64(m.Dims.Nz)
		for y := 0; y < m.Dims.Ny; y++ {
			for x := 0; x < m.Dims.Nx; x++ {
				dx := float64(x - wx)
				dy := float64(y - wy)
				r2 := (dx*dx + dy*dy) / 36.0
				if r2 > 16 {
					continue
				}
				i := m.Index(x, y, z)
				m.Pressure[i] += opts.WellOverpressure * zfrac * math.Exp(-r2)
			}
		}
	}
}

// PerturbAmplitude is the amplitude (Pa) every engine — fabric, flat, GPU,
// reference, unstructured — passes to the perturbation schedule below, so
// they all see the same sequence of pressure fields.
const PerturbAmplitude float32 = 1000.0

// PerturbPressure32 applies the deterministic between-application pressure
// update used by all engines: the paper applies Algorithm 1 a thousand times
// "with a different pressure vector at every call" (§3). The update is a
// cheap, cell-indexed float32 recurrence so every engine (fabric, flat, GPU,
// reference) produces bit-identical input sequences:
//
//	p[i] += amp · sin32(0.7·app + 0.001·i)
//
// It is exported so the engines share one definition.
func PerturbPressure32(p []float32, app int, amp float32) {
	for i := range p {
		p[i] += PerturbDelta32(app, i, amp)
	}
}

// PerturbDelta32 returns the perturbation for one cell; the distributed
// engines apply it per Z-column using the global cell index, producing the
// exact same float32 values as PerturbPressure32 over the whole field. Both
// products of the phase and the amplitude product are rounded explicitly, so
// a target that may fuse x·y + z (arm64) computes the bits amd64 does — here
// and in the caller's p += delta once this is inlined.
func PerturbDelta32(app, cellIndex int, amp float32) float32 {
	return float32(amp * sin32(float32(0.7*float32(app))+float32(0.001*float32(cellIndex))))
}

// PerturbColumn32 applies PerturbDelta32 to one strided column of the field:
// p[z] is cell first + z·step. It is the per-PE form (a Z column is every
// Nx·Ny-th cell) with the application's phase term hoisted out of the loop;
// every element evaluates the same float32 expression as PerturbDelta32.
// Where the host has the vector pass (vectorSin) and every index fits int32,
// whole groups of four go through it; a group it stops at (a lane whose sine
// it cannot round with certainty) and the tail take the Go loop, so every
// element is PerturbDelta32's bit for bit.
func PerturbColumn32(p []float32, app, first, step int, amp float32) {
	phase := float32(0.7 * float32(app))
	idx := first
	vector := vectorSin && int32Lanes(first, step, len(p))
	for len(p) > 0 {
		if vector && len(p) >= 4 {
			done := perturbVector(p, phase, idx, step, amp)
			p, idx = p[done:], idx+done*step
		}
		k := min(len(p), 4)
		for z := range p[:k] {
			p[z] += float32(amp * sin32(phase+float32(0.001*float32(idx))))
			idx += step
		}
		p = p[k:]
	}
}

// int32Lanes reports whether the n indices first + z·step all fit the vector
// pass's int32 lanes.
func int32Lanes(first, step, n int) bool {
	fits := func(v int) bool { return v == int(int32(v)) }
	return fits(first) && fits(step) && fits(n) && fits(first+(n-1)*step)
}

// sin32 is float32 sine via float64 math (single, shared rounding path).
// It is the definition: the vector pass keeps only lanes it rounds the same.
func sin32(x float32) float32 { return float32(math.Sin(float64(x))) }

// vectorSin selects the perturbation's vector pass where the host has one
// (cpufeat.AVX2FMA). Only tests clear it, to time or check sin32 alone.
var vectorSin = cpufeat.AVX2FMA
