package kernels

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// FluxConsts are the per-launch fluid constants in float32. The kernel works
// with half-densities (½ρ): the ½ of the interface average is folded into
// the density prefactor and compensated by 2/μ in the mobility — one fewer
// multiply per face.
type FluxConsts struct {
	HalfRhoRef, PRef, Cf, Inv2Mu float32
}

// FluxData is the device-resident state of the reference implementation:
// the whole mesh is uploaded once ("we avoid data domain decomposition and
// save time from frequent data transfer", §6). The elevation buffer carries
// g·z (the same gravity coefficient the dataflow engine exchanges).
type FluxData struct {
	Dev    *gpusim.Device
	Dims   mesh.Dims
	Consts FluxConsts
	P      *gpusim.Buffer
	GZ     *gpusim.Buffer
	Trans  [mesh.NumDirections]*gpusim.Buffer
	Res    *gpusim.Buffer
}

// Upload allocates device buffers and copies the mesh fields (H2D).
func Upload(dev *gpusim.Device, m *mesh.Mesh, fl physics.Fluid) (*FluxData, error) {
	if err := fl.Validate(); err != nil {
		return nil, err
	}
	n := m.Dims.Cells()
	fd := &FluxData{
		Dev:  dev,
		Dims: m.Dims,
		Consts: FluxConsts{
			HalfRhoRef: float32(0.5 * fl.RhoRef),
			PRef:       float32(fl.PRef),
			Cf:         float32(fl.Compressibility),
			Inv2Mu:     float32(2 / fl.Viscosity),
		},
	}
	var err error
	alloc := func(name string) *gpusim.Buffer {
		if err != nil {
			return nil
		}
		var b *gpusim.Buffer
		b, err = dev.Malloc(name, n)
		return b
	}
	fd.P = alloc("pressure")
	fd.GZ = alloc("gravity-elevation")
	for _, d := range mesh.AllDirections {
		fd.Trans[d] = alloc("trans-" + d.String())
	}
	fd.Res = alloc("residual")
	if err != nil {
		return nil, err
	}
	if err := dev.CopyToDevice(fd.P, m.Pressure32()); err != nil {
		return nil, err
	}
	if err := dev.CopyToDevice(fd.GZ, m.GravityElev32(fl.Gravity)); err != nil {
		return nil, err
	}
	for _, d := range mesh.AllDirections {
		if err := dev.CopyToDevice(fd.Trans[d], m.Trans32(d)); err != nil {
			return nil, err
		}
	}
	return fd, nil
}

// Residual copies the residual back to the host (D2H).
func (fd *FluxData) Residual() []float32 { return fd.Dev.CopyToHost(fd.Res) }

// neighborOffsets caches each direction's index offset; boundary neighbors
// are index-clamped (their faces carry Υ = 0, so the loaded values are
// inert) — the standard branch-free treatment.
var neighborOffsets = func() [mesh.NumDirections][3]int {
	var out [mesh.NumDirections][3]int
	for _, d := range mesh.AllDirections {
		dx, dy, dz := d.Offset()
		out[d] = [3]int{dx, dy, dz}
	}
	return out
}()

// fluxCell is the device function both reference kernels invoke — logically
// identical to the dataflow kernel (§6: "the functions that perform the flux
// computation ... are logically identical"), but with the exponential
// density (Eq. 5) and direct global-memory indexing instead of fabric
// receives.
func fluxCell(t *gpusim.ThreadCtx, fd *FluxData, x, y, z int) {
	d := fd.Dims
	c := fd.Consts
	idx := (z*d.Ny+y)*d.Nx + x
	pK := t.Load(fd.P, idx)
	gzK := t.Load(fd.GZ, idx)
	r := float32(0)
	for _, dir := range mesh.AllDirections {
		off := neighborOffsets[dir]
		nx := clamp(x+off[0], 0, d.Nx-1)
		ny := clamp(y+off[1], 0, d.Ny-1)
		nz := clamp(z+off[2], 0, d.Nz-1)
		nIdx := (nz*d.Ny+ny)*d.Nx + nx
		tr := t.Load(fd.Trans[dir], idx)
		pL := t.Load(fd.P, nIdx)
		gzL := t.Load(fd.GZ, nIdx)

		// Half-densities in K and L (Eq. 5 with the ½ average folded in).
		hK := t.Mul(c.HalfRhoRef, t.Exp(t.Mul(c.Cf, t.Sub(pK, c.PRef))))
		hL := t.Mul(c.HalfRhoRef, t.Exp(t.Mul(c.Cf, t.Sub(pL, c.PRef))))
		// Potential difference (Eq. 3b): ρavg = hK + hL, g·z precombined.
		grav := t.Mul(t.Add(hK, hL), t.Sub(gzL, gzK))
		dPhi := t.Add(t.Sub(pL, pK), grav)
		// Upwinded mobility (Eq. 4) as a predicated select; 2/μ compensates
		// the half-density.
		lambda := t.Mul(t.Sel(dPhi, hK, hL), c.Inv2Mu)
		// Flux (Eq. 3a), accumulated into the local residual.
		r = t.Add(r, t.Mul(t.Mul(tr, lambda), dPhi))
	}
	t.Store(fd.Res, idx, r)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// FlopsPerCell is the measured per-cell FLOP count of the reference kernels
// (10 faces × physics.FlopsPerFaceExp); tests assert the counters agree.
const FlopsPerCell = 10 * physics.FlopsPerFaceExp

// RunRAJA applies Algorithm 1 apps times through the Fig. 7 execution
// policy, perturbing the pressure vector between applications (host-side
// preparation of "a different pressure vector at every call"). It returns
// the accumulated kernel stats of all launches.
func (fd *FluxData) RunRAJA(apps int) (*gpusim.KernelStats, error) {
	return fd.run(apps, func() (*gpusim.KernelStats, error) {
		return LaunchRAJA(fd.Dev, FluxPolicy(), [3]int{fd.Dims.Nx, fd.Dims.Ny, fd.Dims.Nz},
			func(t *gpusim.ThreadCtx, x, y, z int) { fluxCell(t, fd, x, y, z) })
	})
}

// RunCUDA is the hand-written variant: the same 16×8×8 tiling, but the grid
// and index math are computed manually and the boundary guard lives in the
// kernel body ("it also needs to handle boundary checking", §6).
func (fd *FluxData) RunCUDA(apps int) (*gpusim.KernelStats, error) {
	block := gpusim.Dim3{X: 16, Y: 8, Z: 8}
	grid := gpusim.Dim3{
		X: ceilDiv(fd.Dims.Nx, block.X),
		Y: ceilDiv(fd.Dims.Ny, block.Y),
		Z: ceilDiv(fd.Dims.Nz, block.Z),
	}
	return fd.run(apps, func() (*gpusim.KernelStats, error) {
		return fd.Dev.Launch(grid, block, func(t *gpusim.ThreadCtx) {
			x := t.BlockIdx.X*t.BlockDim.X + t.ThreadIdx.X
			y := t.BlockIdx.Y*t.BlockDim.Y + t.ThreadIdx.Y
			z := t.BlockIdx.Z*t.BlockDim.Z + t.ThreadIdx.Z
			if x >= fd.Dims.Nx || y >= fd.Dims.Ny || z >= fd.Dims.Nz {
				t.Return() // manual boundary check
				return
			}
			fluxCell(t, fd, x, y, z)
		})
	})
}

func (fd *FluxData) run(apps int, launch func() (*gpusim.KernelStats, error)) (*gpusim.KernelStats, error) {
	if apps <= 0 {
		return nil, fmt.Errorf("kernels: applications must be positive, got %d", apps)
	}
	total := &gpusim.KernelStats{}
	for app := 0; app < apps; app++ {
		if app > 0 {
			fd.P.Mutate(func(p []float32) {
				mesh.PerturbPressure32(p, app, mesh.PerturbAmplitude)
			})
		}
		st, err := launch()
		if err != nil {
			return nil, err
		}
		total.Grid, total.Block = st.Grid, st.Block
		total.Add(st)
	}
	return total, nil
}
