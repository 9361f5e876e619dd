// Package wave implements the paper's §8 second extension: the diagonal
// communication pattern "enables the implementation of other types of
// applications, such as solving the acoustic wave equation on tiled
// transversely isotropic media, that also require fetching data from
// diagonal neighbors".
//
// It solves the 2D acoustic wave equation on a TTI (tilted transversely
// isotropic) medium with a second-order leapfrog scheme:
//
//	u^{n+1} = 2uⁿ − u^{n−1} + Δt²·L(uⁿ) + Δt²·s(t)
//
// where L is the rotated anisotropic Laplacian. With fast/slow velocities
// (v_ξ, v_η) along axes tilted by θ:
//
//	L = A·∂²x + B·∂²y + C·∂²xy
//	A = v_ξ²cos²θ + v_η²sin²θ
//	B = v_ξ²sin²θ + v_η²cos²θ
//	C = 2·sinθ·cosθ·(v_ξ² − v_η²)
//
// The cross term C·∂²xy discretizes on the four diagonal neighbors — the
// nine-point stencil maps exactly onto the flux kernel's neighborhood
// exchange (fabric/exchange.go). One cell lives on one PE; each time step
// exchanges a single value per direction.
//
// Two engines share the identical float32 update expression: a serial host
// engine and a fabric engine on the wavelet simulator; tests assert they are
// bit-identical. A float64 reference bounds the rounding error.
package wave

import (
	"fmt"
	"math"
)

// Medium is a 2D TTI velocity model on a square-cell grid.
type Medium struct {
	Nx, Ny int
	// Dx is the cell size in meters (square cells).
	Dx float64
	// VFast and VSlow are the velocities (m/s) along the tilted fast/slow
	// axes, per cell.
	VFast, VSlow []float64
	// Theta is the tilt angle in radians, per cell.
	Theta []float64
}

// NewUniformMedium builds a constant TTI medium.
func NewUniformMedium(nx, ny int, dx, vFast, vSlow, theta float64) (*Medium, error) {
	if nx < 3 || ny < 3 {
		return nil, fmt.Errorf("wave: grid %dx%d too small (need ≥3 per side)", nx, ny)
	}
	if dx <= 0 || vFast <= 0 || vSlow <= 0 {
		return nil, fmt.Errorf("wave: dx and velocities must be positive")
	}
	if vSlow > vFast {
		return nil, fmt.Errorf("wave: vSlow %g exceeds vFast %g", vSlow, vFast)
	}
	n := nx * ny
	m := &Medium{Nx: nx, Ny: ny, Dx: dx,
		VFast: make([]float64, n), VSlow: make([]float64, n), Theta: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.VFast[i] = vFast
		m.VSlow[i] = vSlow
		m.Theta[i] = theta
	}
	return m, nil
}

// Index maps (x, y) to the linear cell index.
func (m *Medium) Index(x, y int) int { return y*m.Nx + x }

// MaxVelocity returns the largest fast velocity (CFL input).
func (m *Medium) MaxVelocity() float64 {
	mx := 0.0
	for _, v := range m.VFast {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// MaxStableDt returns the leapfrog CFL limit for the nine-point stencil.
func (m *Medium) MaxStableDt() float64 {
	return m.Dx / (m.MaxVelocity() * math.Sqrt2)
}

// coefficients precomputes the float32 stencil coefficients
// (A, B, C scaled by Δt²/Δx²).
func (m *Medium) coefficients(dt float64) (a, b, c []float32) {
	n := m.Nx * m.Ny
	a = make([]float32, n)
	b = make([]float32, n)
	c = make([]float32, n)
	s := dt * dt / (m.Dx * m.Dx)
	for i := 0; i < n; i++ {
		vf2 := m.VFast[i] * m.VFast[i]
		vs2 := m.VSlow[i] * m.VSlow[i]
		cos, sin := math.Cos(m.Theta[i]), math.Sin(m.Theta[i])
		a[i] = float32(s * (vf2*cos*cos + vs2*sin*sin))
		b[i] = float32(s * (vf2*sin*sin + vs2*cos*cos))
		// ∂²xy uses the /4 divisor of the central cross difference.
		c[i] = float32(s * 2 * sin * cos * (vf2 - vs2) / 4)
	}
	return a, b, c
}

// Source is a Ricker-wavelet point source.
type Source struct {
	X, Y int
	// Freq is the peak frequency in Hz; Amp the amplitude.
	Freq, Amp float64
}

// Ricker evaluates the wavelet at time t (delayed to start near zero).
func (s Source) Ricker(t float64) float64 {
	t0 := 1.2 / s.Freq
	arg := math.Pi * s.Freq * (t - t0)
	arg *= arg
	return s.Amp * (1 - 2*arg) * math.Exp(-arg)
}

// Options configures a simulation.
type Options struct {
	Dt     float64
	Steps  int
	Source Source
	// Fabric runs the wavelet-fabric engine; default is the serial host
	// engine (bit-identical).
	Fabric bool
}

// Result is the final wavefield and per-step diagnostics.
type Result struct {
	U      []float32 // final wavefield, row-major
	MaxAbs []float32 // max |u| after each step (stability evidence)
	Steps  int
	Engine string
}

func (m *Medium) validate(opts Options) error {
	if len(m.VFast) != m.Nx*m.Ny || len(m.VSlow) != m.Nx*m.Ny || len(m.Theta) != m.Nx*m.Ny {
		return fmt.Errorf("wave: medium field lengths do not match %dx%d", m.Nx, m.Ny)
	}
	if opts.Dt <= 0 {
		return fmt.Errorf("wave: time step must be positive, got %g", opts.Dt)
	}
	if limit := m.MaxStableDt(); opts.Dt > limit {
		return fmt.Errorf("wave: Δt %g violates the CFL limit %g (dx/(vmax·√2))", opts.Dt, limit)
	}
	if opts.Steps <= 0 {
		return fmt.Errorf("wave: steps must be positive, got %d", opts.Steps)
	}
	s := opts.Source
	if s.X <= 0 || s.X >= m.Nx-1 || s.Y <= 0 || s.Y >= m.Ny-1 {
		return fmt.Errorf("wave: source (%d,%d) must be interior to %dx%d", s.X, s.Y, m.Nx, m.Ny)
	}
	if s.Freq <= 0 {
		return fmt.Errorf("wave: source frequency must be positive")
	}
	return nil
}

// stencilUpdate is the shared float32 update for one interior cell. Keeping
// one expression guarantees host and fabric engines agree bitwise.
func stencilUpdate(u, uPrev, a, b, c float32, e, w, n, s, ne, nw, se, sw float32, src float32) float32 {
	lap := a*(e-2*u+w) + b*(s-2*u+n) + c*((se+nw)-(ne+sw))
	return 2*u - uPrev + lap + src
}

// Simulate runs the float32 engine selected by opts.
func Simulate(m *Medium, opts Options) (*Result, error) {
	if err := m.validate(opts); err != nil {
		return nil, err
	}
	if opts.Fabric {
		return simulateFabric(m, opts)
	}
	return simulateHost(m, opts)
}

// simulateHost is the serial engine: full-grid sweeps with the shared
// stencil expression. Boundary cells hold u = 0 (Dirichlet).
func simulateHost(m *Medium, opts Options) (*Result, error) {
	a, b, c := m.coefficients(opts.Dt)
	n := m.Nx * m.Ny
	u := make([]float32, n)
	uPrev := make([]float32, n)
	uNext := make([]float32, n)
	res := &Result{Steps: opts.Steps, Engine: "host"}
	srcIdx := m.Index(opts.Source.X, opts.Source.Y)
	for step := 0; step < opts.Steps; step++ {
		srcVal := sourceTerm(opts, step)
		for y := 1; y < m.Ny-1; y++ {
			for x := 1; x < m.Nx-1; x++ {
				i := m.Index(x, y)
				var src float32
				if i == srcIdx {
					src = srcVal
				}
				uNext[i] = stencilUpdate(u[i], uPrev[i], a[i], b[i], c[i],
					u[i+1], u[i-1], u[i-m.Nx], u[i+m.Nx],
					u[i-m.Nx+1], u[i-m.Nx-1], u[i+m.Nx+1], u[i+m.Nx-1],
					src)
			}
		}
		uPrev, u, uNext = u, uNext, uPrev
		mx, err := maxAbsChecked(u, step)
		if err != nil {
			return nil, err
		}
		res.MaxAbs = append(res.MaxAbs, mx)
	}
	res.U = u
	return res, nil
}

// sourceTerm evaluates Δt²·s(t) in float32 at a step, shared by engines.
func sourceTerm(opts Options, step int) float32 {
	t := float64(step) * opts.Dt
	return float32(opts.Dt * opts.Dt * opts.Source.Ricker(t))
}

func maxAbsChecked(u []float32, step int) (float32, error) {
	var mx float32
	for i, v := range u {
		if v != v { // NaN
			return 0, fmt.Errorf("wave: NaN at cell %d, step %d — instability", i, step)
		}
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	if mx > 1e20 {
		return 0, fmt.Errorf("wave: wavefield diverged (max |u| = %g) at step %d", mx, step)
	}
	return mx, nil
}
