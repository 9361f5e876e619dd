// Package wse describes the wafer-scale machine (the Cerebras CS-2 of the
// paper's §7.1): the usable fabric, the PE clock and memory, and the fit
// checks the performance and roofline models size their meshes with.
package wse

import (
	"fmt"

	"repro/internal/units"
)

// MachineSpec captures the hardware characteristics the experiments and the
// performance model need.
type MachineSpec struct {
	Name string
	// FabricWidth/Height is the maximum user-visible PE rectangle. The SDK
	// reserves a thin halo of PEs at the wafer edge, leaving 750×994 on the
	// CS-2 (§7.1).
	FabricWidth, FabricHeight int
	// TotalPEs is the marketing-level PE count of the wafer (850,000 on
	// WSE-2); only FabricWidth×FabricHeight are programmable.
	TotalPEs int
	// ClockHz is the PE clock.
	ClockHz float64
	// MemPerPEBytes is each PE's private memory (48 KiB on WSE-2).
	MemPerPEBytes int
	// SIMDWidth is the per-cycle fp32 lane count of the vector unit (§5.3.3:
	// "up to 2 in single precision").
	SIMDWidth int
	// PowerWatts is the steady-state system power (§7.2: 23 kW).
	PowerWatts float64
}

// CS2 returns the machine of the paper's evaluation.
func CS2() MachineSpec {
	return MachineSpec{
		Name:          "Cerebras CS-2",
		FabricWidth:   750,
		FabricHeight:  994,
		TotalPEs:      850000,
		ClockHz:       850e6,
		MemPerPEBytes: 48 * units.KiB,
		SIMDWidth:     2,
		PowerWatts:    23000,
	}
}

// MemWords returns the per-PE memory capacity in float32 words.
func (s MachineSpec) MemWords() int { return s.MemPerPEBytes / 4 }

// CheckFabricFit verifies an Nx×Ny PE mapping fits the usable fabric.
func (s MachineSpec) CheckFabricFit(nx, ny int) error {
	if nx <= 0 || ny <= 0 {
		return fmt.Errorf("wse: mapping dimensions must be positive, got %dx%d", nx, ny)
	}
	if nx > s.FabricWidth || ny > s.FabricHeight {
		return fmt.Errorf("wse: %dx%d mapping exceeds the %dx%d usable fabric of the %s",
			nx, ny, s.FabricWidth, s.FabricHeight, s.Name)
	}
	return nil
}

// MaxNz returns the largest Z-column depth whose per-PE footprint
// (wordsPerZ·Nz + fixedWords) fits the PE memory. The paper's 246-layer
// limit on the largest mesh emerges from this bound with the flux kernel's
// layout (core's per-PE footprint, §5.3.1).
func (s MachineSpec) MaxNz(wordsPerZ, fixedWords int) int {
	if wordsPerZ <= 0 {
		return 0
	}
	avail := s.MemWords() - fixedWords
	if avail < 0 {
		return 0
	}
	return avail / wordsPerZ
}
