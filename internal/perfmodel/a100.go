package perfmodel

import (
	"fmt"

	"repro/internal/gpusim"
)

// Variant names a reference implementation on the GPU.
type Variant string

const (
	// VariantRAJA is the paper's RAJA build (Fig. 7's execution policy).
	VariantRAJA Variant = "raja"
	// VariantCUDA is the paper's hand-written CUDA build of the same kernel.
	VariantCUDA Variant = "cuda"
)

// A100Params are the calibrated constants of the GPU model.
type A100Params struct {
	// AchievedFraction is each variant's sustained fraction of the device's
	// ERT-measured streaming bandwidth. RAJA's 76.0 % is the paper's "76 %
	// of the peak performance with respect to its arithmetic intensity"
	// (§7.2); CUDA's 87.3 % follows from the Table 1 time ratio.
	AchievedFraction map[Variant]float64
	// LaunchOverhead is the per-application kernel-launch cost (the Table 2
	// intercept).
	LaunchOverhead float64
}

// DefaultA100 returns the calibrated GPU model.
func DefaultA100() A100Params {
	return A100Params{
		AchievedFraction: map[Variant]float64{
			VariantRAJA: 0.7603,
			VariantCUDA: 0.8735,
		},
		LaunchOverhead: 0.6e-6,
	}
}

// A100Inputs carries the measured kernel counters and run geometry.
type A100Inputs struct {
	Cells int
	Apps  int
	// WordBytesPerCell is the measured word-level traffic per cell
	// (the flux kernel: 33 words = 132 B).
	WordBytesPerCell float64
	// FlopsPerCell is the measured FLOPs per cell (280).
	FlopsPerCell float64
	Variant      Variant
}

// FromKernelStats derives the per-cell inputs from a measured launch
// aggregate (stats accumulated over apps applications).
func FromKernelStats(st *gpusim.KernelStats, cells, apps int, v Variant) A100Inputs {
	den := float64(cells) * float64(apps)
	return A100Inputs{
		Cells:            cells,
		Apps:             apps,
		WordBytesPerCell: float64(st.Bytes()) / den,
		FlopsPerCell:     float64(st.Flops) / den,
		Variant:          v,
	}
}

// A100Report is the projected GPU behaviour.
type A100Report struct {
	TotalTime      float64 // s, whole run (kernel time only, like the paper)
	AchievedGflops float64
	AI             float64 // FLOPs/Byte at word level (paper: 2.11)
	EnergyJ        float64
}

// Project evaluates the model.
func (p A100Params) Project(spec gpusim.DeviceSpec, in A100Inputs) (*A100Report, error) {
	if in.Cells <= 0 || in.Apps <= 0 {
		return nil, fmt.Errorf("perfmodel: invalid A100 inputs %+v", in)
	}
	frac, ok := p.AchievedFraction[in.Variant]
	if !ok {
		return nil, fmt.Errorf("perfmodel: unknown GPU variant %q", in.Variant)
	}
	if spec.ERTBandwidth <= 0 || frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("perfmodel: invalid bandwidth model (ERT %g, fraction %g)", spec.ERTBandwidth, frac)
	}
	bw := spec.ERTBandwidth * frac
	perApp := in.WordBytesPerCell*float64(in.Cells)/bw + p.LaunchOverhead
	rep := &A100Report{TotalTime: perApp * float64(in.Apps)}
	totalFlops := in.FlopsPerCell * float64(in.Cells) * float64(in.Apps)
	rep.AchievedGflops = totalFlops / rep.TotalTime / 1e9
	if in.WordBytesPerCell > 0 {
		rep.AI = in.FlopsPerCell / in.WordBytesPerCell
	}
	rep.EnergyJ = spec.PowerWatts * rep.TotalTime
	return rep, nil
}

// Speedup returns a/b as the paper quotes it (e.g. 204× for RAJA vs CS-2).
func Speedup(slower, faster float64) float64 {
	if faster <= 0 {
		return 0
	}
	return slower / faster
}

// EnergyEfficiencyRatio returns how many times less energy the second run
// uses ("2.2x energy efficiency", §7.2).
func EnergyEfficiencyRatio(baselineJ, improvedJ float64) float64 {
	if improvedJ <= 0 {
		return 0
	}
	return baselineJ / improvedJ
}
