package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/physics"
	"repro/internal/solver"
	"repro/internal/umesh"
)

// Scenario is the compiled-engine configuration a request selects: the mesh
// family and size, the partitioning, the preconditioner rung, and the frozen
// physics of the backward-Euler step. Everything in here shapes plan
// compilation (RCB, canonical order, halo plans, CSR interleave, phase
// programs), so the scenario key is exactly the cache key: two requests with
// equal normalized scenarios can share one resident engine. Per-request
// inputs — wells, step count — live on SolveRequest instead, because the
// compiled engine is re-aimed at them without recompiling.
type Scenario struct {
	// Mesh names the mesh family; "radial" (the well-centered refined radial
	// grid) is the one unstructured family served today. Empty selects it.
	Mesh string `json:"mesh"`
	// Rings and Sectors size the radial mesh (ring count, innermost ring's
	// sector count); RefineEvery doubles the sectors every k rings. Zero
	// values select 64/64/16 — the 15360-cell benchmark mesh.
	Rings       int `json:"rings,omitempty"`
	Sectors     int `json:"sectors,omitempty"`
	RefineEvery int `json:"refine_every,omitempty"`
	// Parts is the RCB part count (power of two; 0 selects 1). Workers sizes
	// the engine worker pool (0 selects 1 — resident engines default to one
	// worker each so a pool of them does not oversubscribe the host).
	Parts   int `json:"parts,omitempty"`
	Workers int `json:"workers,omitempty"`
	// Precond names the preconditioner ladder rung: jacobi, ssor, chebyshev
	// or amg (empty selects jacobi).
	Precond string `json:"precond,omitempty"`
	// DtSeconds is the frozen backward-Euler step length (0 selects 3600);
	// Tol and MaxIter shape the Krylov iteration (0 selects 1e-8 / 800).
	DtSeconds float64 `json:"dt_seconds,omitempty"`
	Tol       float64 `json:"tol,omitempty"`
	MaxIter   int     `json:"max_iter,omitempty"`
	// Porosity is the constant porosity (0 selects umesh.DefaultPorosity).
	Porosity float64 `json:"porosity,omitempty"`
	// Viscosity and Compressibility override the default CO2 fluid when
	// non-zero — the physics parameters frozen into the operator.
	Viscosity       float64 `json:"viscosity,omitempty"`
	Compressibility float64 `json:"compressibility,omitempty"`
}

// Normalized fills every defaulted field, so equal effective configurations
// hash to equal keys regardless of which zero values the request spelled
// out.
func (s Scenario) Normalized() Scenario {
	if s.Mesh == "" {
		s.Mesh = "radial"
	}
	if s.Rings == 0 && s.Sectors == 0 && s.RefineEvery == 0 {
		s.Rings, s.Sectors, s.RefineEvery = 64, 64, 16
	}
	if s.Parts == 0 {
		s.Parts = 1
	}
	if s.Workers == 0 {
		s.Workers = 1
	}
	if s.Precond == "" {
		s.Precond = string(solver.PrecondJacobi)
	}
	if s.DtSeconds == 0 {
		s.DtSeconds = 3600
	}
	if s.Tol == 0 {
		s.Tol = 1e-8
	}
	if s.MaxIter == 0 {
		s.MaxIter = 800
	}
	if s.Porosity == 0 {
		s.Porosity = umesh.DefaultPorosity
	}
	fl := physics.DefaultFluid()
	if s.Viscosity == 0 {
		s.Viscosity = fl.Viscosity
	}
	if s.Compressibility == 0 {
		s.Compressibility = fl.Compressibility
	}
	return s
}

// Validate rejects scenarios the serving layer cannot compile. maxCells
// bounds the admission-time cell estimate (0 disables the bound).
func (s Scenario) Validate(maxCells int) error {
	n := s.Normalized()
	if n.Mesh != "radial" {
		return fmt.Errorf("serve: unknown mesh family %q (want radial)", s.Mesh)
	}
	if n.Rings < 2 || n.Sectors < 3 {
		return fmt.Errorf("serve: radial mesh needs ≥2 rings and ≥3 sectors, got %d/%d", n.Rings, n.Sectors)
	}
	if n.RefineEvery < 0 {
		return fmt.Errorf("serve: refine_every must be non-negative, got %d", n.RefineEvery)
	}
	if n.Parts < 1 || bits.OnesCount(uint(n.Parts)) != 1 {
		return fmt.Errorf("serve: parts must be a positive power of two (RCB bisection), got %d", n.Parts)
	}
	if n.Workers < 1 {
		return fmt.Errorf("serve: workers must be positive, got %d", s.Workers)
	}
	kind := solver.PrecondKind(n.Precond)
	known := false
	for _, k := range solver.PrecondKinds() {
		if kind == k {
			known = true
		}
	}
	if !known {
		names := make([]string, 0, 4)
		for _, k := range solver.PrecondKinds() {
			names = append(names, string(k))
		}
		return fmt.Errorf("serve: unknown preconditioner %q (want %s)", s.Precond, strings.Join(names, ", "))
	}
	if n.DtSeconds <= 0 || n.Tol <= 0 || n.MaxIter <= 0 {
		return fmt.Errorf("serve: dt_seconds, tol and max_iter must be positive")
	}
	if n.Porosity < 0 || n.Porosity > 1 {
		return fmt.Errorf("serve: porosity %g outside (0, 1]", s.Porosity)
	}
	if n.Viscosity <= 0 || n.Compressibility <= 0 {
		return fmt.Errorf("serve: viscosity and compressibility must be positive")
	}
	if maxCells > 0 {
		cells := n.Rings // a lower bound, so the estimate walks a bounded ring count
		if cells <= maxCells {
			cells = n.cellEstimate()
		}
		if cells > maxCells {
			return fmt.Errorf("serve: scenario has %d cells or more, over the %d-cell admission bound", cells, maxCells)
		}
	}
	return nil
}

// cellEstimate replicates the radial builder's sector progression to bound
// the mesh size before paying for compilation.
func (s Scenario) cellEstimate() int {
	n := s.Normalized()
	cells, sectors := 0, n.Sectors
	for i := 0; i < n.Rings; i++ {
		if i > 0 && n.RefineEvery > 0 && i%n.RefineEvery == 0 {
			sectors *= 2
		}
		if cells += sectors; cells > 1<<40 {
			break // over any admissible bound already, and well short of overflow
		}
	}
	return cells
}

// canonical renders the normalized scenario as a fixed-order string — the
// preimage of the cache key.
func (s Scenario) canonical() string {
	n := s.Normalized()
	return fmt.Sprintf("mesh=%s rings=%d sectors=%d refine=%d parts=%d workers=%d precond=%s dt=%g tol=%g maxiter=%d porosity=%g visc=%g compr=%g",
		n.Mesh, n.Rings, n.Sectors, n.RefineEvery, n.Parts, n.Workers, n.Precond,
		n.DtSeconds, n.Tol, n.MaxIter, n.Porosity, n.Viscosity, n.Compressibility)
}

// Key returns the scenario's canonical cache key: a hex SHA-256 over the
// normalized configuration, so spelled-out defaults and omitted fields key
// identically.
func (s Scenario) Key() string {
	sum := sha256.Sum256([]byte(s.canonical()))
	return hex.EncodeToString(sum[:])
}

// compiled is one scenario's plan-compilation output shared by its resident
// engines: the mesh, the RCB partition, the fluid, and the transient
// template every solve re-aims.
type compiled struct {
	u    *umesh.Mesh
	part *umesh.Partition
	fl   physics.Fluid
	tmpl umesh.TransientOptions
}

// compile builds the scenario's shared state. It assumes Validate passed.
func (s Scenario) compile() (*compiled, error) {
	n := s.Normalized()
	u, err := umesh.NewRadialMesh(umesh.RadialOptions{
		Rings: n.Rings, BaseSectors: n.Sectors, RefineEvery: n.RefineEvery,
		R0: 1, DR: 4, Dz: 4, PermMD: 200,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: mesh: %w", err)
	}
	part, err := umesh.RCB(u, bits.TrailingZeros(uint(n.Parts)))
	if err != nil {
		return nil, fmt.Errorf("serve: partition: %w", err)
	}
	fl := physics.DefaultFluid()
	fl.Viscosity = n.Viscosity
	fl.Compressibility = n.Compressibility
	tmpl := umesh.TransientOptions{
		Dt:       n.DtSeconds,
		Porosity: n.Porosity,
		Workers:  n.Workers,
		// The default well pair a request with no wells runs: inject at the
		// well-centered cell, produce at the outermost cell.
		Wells: []umesh.Well{
			{Cell: u.WellIndex(), Rate: 2},
			{Cell: u.NumCells - 1, Rate: -2},
		},
	}
	tmpl.Solver.Tol = n.Tol
	tmpl.Solver.MaxIter = n.MaxIter
	tmpl.Solver.PrecondKind = solver.PrecondKind(n.Precond)
	return &compiled{u: u, part: part, fl: fl, tmpl: tmpl}, nil
}

// newSolver compiles one resident engine for the scenario.
func (c *compiled) newSolver() (*umesh.TransientSolver, error) {
	return umesh.NewTransientSolver(c.u, c.part, c.fl, c.tmpl)
}
