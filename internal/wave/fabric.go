package wave

import (
	"fmt"

	"repro/internal/fabric"
)

// The fabric engine: one grid cell per PE and the flux kernel's §5.2
// exchange (fabric/exchange.go) with a one-word payload per time step.
// Boundary PEs hold the Dirichlet zero and still send, so interior stencils
// always see eight values.

// exchangeColor is the first of the exchange's eight colors.
const exchangeColor fabric.Color = 2

// simulateFabric runs the leapfrog on the wavelet fabric.
func simulateFabric(m *Medium, opts Options) (*Result, error) {
	fab, err := fabric.New(fabric.Config{
		Width:      m.Nx,
		Height:     m.Ny,
		MemWords:   64, // wave state lives in worker locals; PE memory unused
		LinkBuffer: 64,
		RampBuffer: 128,
	})
	if err != nil {
		return nil, err
	}
	if err := fab.ForEachPE(func(pe *fabric.PE) error { return fabric.InstallExchange(pe, exchangeColor, true) }); err != nil {
		return nil, err
	}

	a, b, c := m.coefficients(opts.Dt)
	n := m.Nx * m.Ny
	final := make([]float32, n)
	hist := make([][]float32, n) // per-PE |u| history, reduced afterwards
	srcIdx := m.Index(opts.Source.X, opts.Source.Y)

	err = fab.Run(func(pe *fabric.PE) error {
		i := m.Index(pe.X, pe.Y)
		interior := pe.X > 0 && pe.X < m.Nx-1 && pe.Y > 0 && pe.Y < m.Ny-1
		var u, uPrev float32
		localHist := make([]float32, opts.Steps)

		// Neighbor values by origin; each slot is written once per step, so
		// the order they arrive in does not matter.
		var nbr [fabric.NumOrigins]float32
		ex := fabric.NewExchange(pe, exchangeColor, 1, true)
		deliver := func(o fabric.Origin, v []float32) error {
			nbr[o] = v[0]
			return nil
		}

		for step := 0; step < opts.Steps; step++ {
			ex.Send([]float32{u})
			if err := ex.Collect(deliver); err != nil {
				return fmt.Errorf("wave: step %d: %w", step, err)
			}
			var uNext float32
			if interior {
				var src float32
				if i == srcIdx {
					src = sourceTerm(opts, step)
				}
				uNext = stencilUpdate(u, uPrev, a[i], b[i], c[i],
					nbr[fabric.FromEast], nbr[fabric.FromWest], nbr[fabric.FromNorth], nbr[fabric.FromSouth],
					nbr[fabric.FromNorthEast], nbr[fabric.FromNorthWest], nbr[fabric.FromSouthEast], nbr[fabric.FromSouthWest], src)
				if uNext != uNext {
					return fmt.Errorf("wave: NaN at PE(%d,%d) step %d", pe.X, pe.Y, step)
				}
			}
			uPrev, u = u, uNext
			if u < 0 {
				localHist[step] = -u
			} else {
				localHist[step] = u
			}
		}
		final[i] = u
		hist[i] = localHist
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{U: final, Steps: opts.Steps, Engine: "fabric"}
	res.MaxAbs = make([]float32, opts.Steps)
	for _, h := range hist {
		for s, v := range h {
			if v > res.MaxAbs[s] {
				res.MaxAbs[s] = v
			}
		}
	}
	return res, nil
}
