// Package perfmodel converts measured simulator counters into projected
// wall-clock, throughput and energy on the paper's hardware (CS-2 and A100).
//
// The simulators in this repository are functional: they execute the same
// instructions and move the same bytes as the hardware, but host wall-clock
// tells us nothing about a wafer or a GPU. The models here are closed-form
// expressions in the *measured counters* (bytes, words, issues, FLOPs) with
// a handful of hardware constants calibrated once against the paper's §7
// measurements. This package's tests hold the model to the paper's Tables 1–3
// and §7.2; the headline checks are:
//
//	CS-2  compute 62.4 µs/app  = 406 acc/cell × 4 B × 246 layers / 6.402 GB/s
//	CS-2  comm    18.6 µs/app  = 4·Nz inbound words/link × 18.9 ns
//	CS-2  pipeline 0.77 ns × (Nx+Ny) per app   (weak-scaling slope, Table 2)
//	A100  91.8 ps/cell (RAJA)  = 132 B/cell ÷ (1.891 TB/s × 76.0 %)
//	A100  79.9 ps/cell (CUDA)  = 132 B/cell ÷ (1.891 TB/s × 87.3 %)
//	A100  0.6 µs launch overhead per application (Table 2 intercept)
package perfmodel

import (
	"fmt"

	"repro/internal/wse"
)

// CS2Params are the calibrated hardware constants of the wafer-scale model.
type CS2Params struct {
	// MemBandwidth is the effective per-PE local-memory bandwidth in B/s.
	MemBandwidth float64
	// WaveletCost is the effective cost per inbound word on a PE's busiest
	// link, in seconds — it absorbs router arbitration and switching.
	WaveletCost float64
	// HopLatency is the per-hop pipeline-fill cost; each application pays
	// (Nx+Ny)·HopLatency before the fabric reaches steady state.
	HopLatency float64
	// IssueCost is the per-instruction issue cost (1 cycle). It is invisible
	// under vectorization (hundreds of issues per application) and dominant
	// in the scalar ablation (tens of thousands).
	IssueCost float64
	// OverlapComm models §5.3.2: when true (the paper's implementation) only
	// the inbound stream is exposed; when false, sends serialize with
	// receives and the exposed communication doubles.
	OverlapComm bool
}

// DefaultCS2 returns the constants calibrated against §7.2 (see the package
// comment).
func DefaultCS2() CS2Params {
	return CS2Params{
		MemBandwidth: 6.4023e9,
		WaveletCost:  18.902e-9,
		HopLatency:   0.77e-9,
		IssueCost:    1.0 / 850e6,
		OverlapComm:  true,
	}
}

// CS2Inputs carries the measured per-cell counters and the run geometry.
type CS2Inputs struct {
	Nx, Ny, Nz int
	Apps       int
	// MemAccessesPerCell is the counted loads+stores per cell (Table 4: 406).
	MemAccessesPerCell float64
	// FabricWordsPerCell is the counted fabric receive words per cell (16).
	FabricWordsPerCell float64
	// FlopsPerCell is the counted FLOPs per cell (140).
	FlopsPerCell float64
	// IssuesPerPEPerApp is the counted instruction issues of one PE for one
	// application (vector: O(10²); scalar ablation: O(10⁴·Nz)). Zero means
	// "vectorized, negligible".
	IssuesPerPEPerApp float64
	// CommOnly zeroes the compute term (the Table 3 ablation binary).
	CommOnly bool
}

// CS2Report is the projected hardware behaviour of one run.
type CS2Report struct {
	ComputeTime float64 // s, whole run
	CommTime    float64 // s, whole run (incl. the (Nx+Ny) pipeline fill)
	IssueTime   float64 // s, scalar-issue exposure (0 when vectorized)
	TotalTime   float64 // s

	TotalFlops       float64
	TFlops           float64 // achieved TFLOP/s
	ThroughputGcells float64 // cell updates per second / 1e9
	EnergyJ          float64
	GflopsPerWatt    float64
	CommFraction     float64 // CommTime/TotalTime (Table 3)
}

// Project evaluates the model for a machine and inputs.
func (p CS2Params) Project(spec wse.MachineSpec, in CS2Inputs) (*CS2Report, error) {
	if in.Nx <= 0 || in.Ny <= 0 || in.Nz <= 0 || in.Apps <= 0 {
		return nil, fmt.Errorf("perfmodel: invalid CS-2 inputs %+v", in)
	}
	if err := spec.CheckFabricFit(in.Nx, in.Ny); err != nil {
		return nil, err
	}
	if p.MemBandwidth <= 0 || p.WaveletCost < 0 || p.HopLatency < 0 {
		return nil, fmt.Errorf("perfmodel: invalid CS-2 params %+v", p)
	}

	cells := in.Nx * in.Ny * in.Nz
	apps := float64(in.Apps)

	// Compute: each PE streams its column's counted memory traffic through
	// its local memory once per application (memory-bound, Fig. 8 top).
	var computePerApp float64
	if !in.CommOnly {
		memBytesPerPE := in.MemAccessesPerCell * 4 * float64(in.Nz)
		computePerApp = memBytesPerPE / p.MemBandwidth
	}

	// Communication: the counted inbound words spread over the four links;
	// the busiest link serializes words at WaveletCost each.
	wordsPerLink := in.FabricWordsPerCell * float64(in.Nz) / 4
	commPerApp := wordsPerLink * p.WaveletCost
	if !p.OverlapComm {
		commPerApp *= 2 // sends no longer hide behind receives
	}
	pipelinePerApp := float64(in.Nx+in.Ny) * p.HopLatency
	issuePerApp := in.IssuesPerPEPerApp * p.IssueCost

	rep := &CS2Report{
		ComputeTime: computePerApp * apps,
		CommTime:    (commPerApp + pipelinePerApp) * apps,
		IssueTime:   issuePerApp * apps,
	}
	rep.TotalTime = rep.ComputeTime + rep.CommTime + rep.IssueTime
	rep.TotalFlops = in.FlopsPerCell * float64(cells) * apps
	if rep.TotalTime > 0 {
		rep.TFlops = rep.TotalFlops / rep.TotalTime / 1e12
		rep.ThroughputGcells = float64(cells) * apps / rep.TotalTime / 1e9
		rep.CommFraction = rep.CommTime / rep.TotalTime
	}
	rep.EnergyJ = spec.PowerWatts * rep.TotalTime
	if rep.EnergyJ > 0 {
		rep.GflopsPerWatt = rep.TotalFlops / 1e9 / rep.TotalTime / spec.PowerWatts
	}
	return rep, nil
}
