package solver

import (
	"errors"
	"fmt"
	"math"
)

// This file is the one statement of the Krylov recurrences and the one loop
// that iterates them. CG and BiCGStab are compiled once (CompileCG /
// CompileBiCGStab) onto a ProgramSpace into a set-up program (‖b‖, r = b − A·x
// and the first direction) and an iteration program; a solve then loads its
// inputs once (Load2), runs the set-up program and one iteration program per
// Krylov iteration, and stores the solution once (Store). Each program is the
// vector kernels of that stretch of the recurrence with the scalar bookkeeping
// attached as host actions (see program.go). The space decides how a program
// executes — a single SPMD plan over partitioned vectors on umesh.PartOperator,
// op by op over plain slices on a SliceSpace — and because every space
// evaluates the same per-element expressions and sums every reduction in one
// fixed global order, the solves agree bit for bit.

// Resident vector handles: the solvers address their working sets as fixed
// slots Vec(0..n-1) reserved up front, so repeated solves on one operator
// reuse the same storage and allocate nothing new. Both recurrences keep the
// iterate in vecX and the right-hand side in vecB — where Solve scatters its
// arguments and gathers the solution from.
const (
	vecX = Vec(0)
	vecB = Vec(1)

	cgR   = Vec(2)
	cgZ   = Vec(3)
	cgP   = Vec(4)
	cgAp  = Vec(5)
	cgLen = 6

	biR    = Vec(2)
	biRHat = Vec(3)
	biV    = Vec(4)
	biP    = Vec(5)
	biPh   = Vec(6)
	biS    = Vec(7)
	biSh   = Vec(8)
	biT    = Vec(9)
	biLen  = 10
)

// krylov is the scalar state both recurrences share between the programs'
// ops (via pointers), their actions (via closure) and the solve driver.
type krylov struct {
	k         int // current iteration
	normB, rr float64
	tol, one  float64 // one is the constant 1.0 an op's *A1 can point at
	st        *Stats  // the running solve's report
	half      bool    // BiCGStab: converged at the half step (after s)
}

// residualSetup is the opening both recurrences share: ‖b‖ and r = b − A·x
// through the scratch vector ax. A zero right-hand side stops the program, a
// non-finite one (a NaN or ±Inf entry — every later check would compare
// against NaN and never fire) fails it, both before x is touched. The ⟨r, r⟩
// the fused op leaves in s.rr goes unread.
func residualSetup(s *krylov, x, b, r, ax Vec) []ProgOp {
	return []ProgOp{
		{Kind: OpDot, V1: b, V2: b, R1: &s.normB, Action: func() (bool, error) {
			s.normB = math.Sqrt(s.normB)
			if math.IsNaN(s.normB) || math.IsInf(s.normB, 0) {
				return false, fmt.Errorf("%w: non-finite right-hand side (‖b‖ = %v)", ErrBreakdown, s.normB)
			}
			return s.normB == 0, nil
		}},
		{Kind: OpApply, V1: ax, V2: x},
		{Kind: OpSubAxpyDot, V1: r, V2: b, V3: ax, A1: &s.one, R1: &s.rr},
	}
}

// cgState is the scalar state of a resident CG.
type cgState struct {
	krylov
	rz, rzNew, pap, alpha, beta float64
}

// cgSetup is the CG prologue as a phase program: the shared residual opening,
// then z = M⁻¹·r with rz = ⟨r, z⟩ and p = z.
func cgSetup(s *cgState) []ProgOp {
	return append(residualSetup(&s.krylov, vecX, vecB, cgR, cgAp),
		ProgOp{Kind: OpPrecondDot, V1: cgZ, V2: cgR, R1: &s.rz},
		ProgOp{Kind: OpCopy, V1: cgP, V2: cgZ})
}

// cgProgram is one CG iteration as a phase program. With an elementwise
// (identity/Jacobi) preconditioner the residual update, preconditioner
// application and both dots fuse into a single OpCGStepPre pass; the
// operator-built rungs (SSOR/Chebyshev/AMG) keep the update and the
// preconditioner as separate ops so a converged final iteration skips the
// expensive preconditioner.
func cgProgram(s *cgState, rung bool) []ProgOp {
	alphaAct := func() (bool, error) {
		if s.pap == 0 || math.IsNaN(s.pap) {
			return false, fmt.Errorf("%w: pᵀAp = %v at iteration %d", ErrBreakdown, s.pap, s.k)
		}
		s.alpha = s.rz / s.pap
		return false, nil
	}
	convAct := func() (bool, error) {
		s.st.Iterations = s.k + 1
		s.st.Residual = math.Sqrt(s.rr) / s.normB
		s.st.History = append(s.st.History, s.st.Residual)
		return s.st.Residual <= s.tol, nil
	}
	betaAct := func() (bool, error) {
		if s.rz == 0 {
			return false, fmt.Errorf("%w: rᵀz vanished at iteration %d", ErrBreakdown, s.k)
		}
		s.beta = s.rzNew / s.rz
		s.rz = s.rzNew
		return false, nil
	}
	if rung {
		return []ProgOp{
			{Kind: OpApplyDot, V1: cgAp, V2: cgP, V3: cgP, R1: &s.pap, Action: alphaAct},
			{Kind: OpCGStep, V1: vecX, V2: cgP, V3: cgR, V4: cgAp, A1: &s.alpha, R1: &s.rr, Action: convAct},
			{Kind: OpPrecondDot, V1: cgZ, V2: cgR, R1: &s.rzNew, Action: betaAct},
			{Kind: OpXpby, V1: cgP, V2: cgZ, A1: &s.beta},
		}
	}
	// Fused variant: the preconditioner runs even on the final converged
	// iteration (z is scratch and rzNew goes unused then, so outputs are
	// unchanged); in exchange the steady-state iteration is three ops.
	fusedAct := func() (bool, error) {
		if stop, err := convAct(); stop || err != nil {
			return stop, err
		}
		return betaAct()
	}
	return []ProgOp{
		{Kind: OpApplyDot, V1: cgAp, V2: cgP, V3: cgP, R1: &s.pap, Action: alphaAct},
		{Kind: OpCGStepPre, V1: vecX, V2: cgP, V3: cgR, V4: cgAp, V5: cgZ,
			A1: &s.alpha, R1: &s.rr, R2: &s.rzNew, Action: fusedAct},
		{Kind: OpXpby, V1: cgP, V2: cgZ, A1: &s.beta},
	}
}

// biState is the scalar state of a resident BiCGStab.
type biState struct {
	krylov
	rho, rhoNew, beta, alpha, den, ss, omega, tt, ts float64
}

// biSetup is the BiCGStab prologue: the shared residual opening, then r̂ = r
// and the recurrence's scalars at their starting value.
func biSetup(s *biState) []ProgOp {
	return append(residualSetup(&s.krylov, vecX, vecB, biR, biT),
		ProgOp{Kind: OpCopy, V1: biRHat, V2: biR, Action: func() (bool, error) {
			s.rho, s.alpha, s.omega = 1, 1, 1
			return false, nil
		}})
}

// biProgram is one BiCGStab iteration as a phase program. The first
// iteration copies p = r; steady iterations run the direction update with
// β — two programs rather than one with a β=0 substitution, which would not
// be bitwise-safe (signed zeros).
func biProgram(s *biState, first bool) []ProgOp {
	rhoAct := func() (bool, error) {
		if s.rhoNew == 0 {
			return false, fmt.Errorf("%w: ρ = 0 at iteration %d", ErrBreakdown, s.k)
		}
		if !first {
			s.beta = (s.rhoNew / s.rho) * (s.alpha / s.omega)
		}
		s.rho = s.rhoNew
		return false, nil
	}
	denAct := func() (bool, error) {
		if s.den == 0 {
			return false, fmt.Errorf("%w: r̂ᵀv = 0 at iteration %d", ErrBreakdown, s.k)
		}
		s.alpha = s.rho / s.den
		return false, nil
	}
	ssAct := func() (bool, error) {
		s.st.Iterations = s.k + 1
		if res := math.Sqrt(s.ss) / s.normB; res <= s.tol {
			s.st.Residual = res
			s.st.History = append(s.st.History, res)
			s.half = true
			return true, nil
		}
		return false, nil
	}
	ttAct := func() (bool, error) {
		if s.tt == 0 {
			return false, fmt.Errorf("%w: tᵀt = 0 at iteration %d", ErrBreakdown, s.k)
		}
		s.omega = s.ts / s.tt
		if s.omega == 0 {
			return false, fmt.Errorf("%w: ω = 0 at iteration %d", ErrBreakdown, s.k)
		}
		return false, nil
	}
	rrAct := func() (bool, error) {
		s.st.Residual = math.Sqrt(s.rr) / s.normB
		s.st.History = append(s.st.History, s.st.Residual)
		return s.st.Residual <= s.tol, nil
	}
	dir := ProgOp{Kind: OpBicgP, V1: biP, V2: biR, V3: biV, A1: &s.beta, A2: &s.omega}
	if first {
		dir = ProgOp{Kind: OpCopy, V1: biP, V2: biR}
	}
	return []ProgOp{
		{Kind: OpDot, V1: biRHat, V2: biR, R1: &s.rhoNew, Action: rhoAct},
		dir,
		{Kind: OpPrecond, V1: biPh, V2: biP},
		{Kind: OpApplyDot, V1: biV, V2: biPh, V3: biRHat, R1: &s.den, Action: denAct},
		{Kind: OpSubAxpyDot, V1: biS, V2: biR, V3: biV, A1: &s.alpha, R1: &s.ss, Action: ssAct},
		{Kind: OpPrecond, V1: biSh, V2: biS},
		{Kind: OpApply, V1: biT, V2: biSh},
		{Kind: OpDot2, V1: biT, V2: biT, V3: biS, R1: &s.tt, R2: &s.ts, Action: ttAct},
		{Kind: OpAxpy2, V1: vecX, V2: biPh, V3: biSh, A1: &s.alpha, A2: &s.omega},
		{Kind: OpSubAxpyDot, V1: biR, V2: biS, V3: biT, A1: &s.omega, R1: &s.rr, Action: rrAct},
	}
}

// Resident is CG or BiCGStab compiled onto a ProgramSpace: the preconditioner
// is installed and the programs are compiled once, and every Solve re-runs
// them on a new (x, b). The package-level CG and BiCGStab are one compile plus
// one Solve; a caller that solves the same system many times
// (umesh.TransientSolver) keeps the Resident and pays the compile once.
//
// The operator's preconditioner and its vectors Vec(0..) belong to the
// Resident between Solves: installing another preconditioner on the operator
// invalidates it. Like its operator, a Resident is driven by one goroutine at
// a time.
type Resident struct {
	a       ProgramSpace
	maxIter int
	s       *krylov
	setup   Program
	// first runs iteration 0, steady every later one (one program for CG).
	first, steady Program
	// halfStep finishes x after a BiCGStab half-step convergence: x += α·p̂,
	// the half of the update the stopped iteration never reached.
	halfStep Program
}

// CompileCG compiles preconditioned conjugate gradients onto a.
func CompileCG(a ProgramSpace, opts Options) (*Resident, error) {
	opts = opts.withDefaults()
	if err := a.SetPrecond(opts.PrecondKind, opts.PrecondDiag); err != nil {
		return nil, err
	}
	a.Reserve(cgLen)
	s := &cgState{krylov: krylov{tol: opts.Tol, one: 1}}
	progs, err := compilePrograms(a, cgSetup(s), cgProgram(s, opts.PrecondKind.operatorBuilt()))
	if err != nil {
		return nil, err
	}
	return &Resident{a: a, maxIter: opts.MaxIter, s: &s.krylov,
		setup: progs[0], first: progs[1], steady: progs[1]}, nil
}

// CompileBiCGStab compiles preconditioned BiCGStab onto a.
func CompileBiCGStab(a ProgramSpace, opts Options) (*Resident, error) {
	opts = opts.withDefaults()
	if err := a.SetPrecond(opts.PrecondKind, opts.PrecondDiag); err != nil {
		return nil, err
	}
	a.Reserve(biLen)
	s := &biState{krylov: krylov{tol: opts.Tol, one: 1}}
	progs, err := compilePrograms(a, biSetup(s), biProgram(s, true), biProgram(s, false),
		[]ProgOp{{Kind: OpAxpy, V1: vecX, V2: biPh, A1: &s.alpha}})
	if err != nil {
		return nil, err
	}
	return &Resident{a: a, maxIter: opts.MaxIter, s: &s.krylov,
		setup: progs[0], first: progs[1], steady: progs[2], halfStep: progs[3]}, nil
}

func compilePrograms(a ProgramSpace, lists ...[]ProgOp) ([]Program, error) {
	progs := make([]Program, len(lists))
	for i, ops := range lists {
		p, err := a.CompileProgram(ops)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

// Solve solves A·x = b: x carries the initial guess and receives the
// solution. cancel has the meaning of Options.Cancel (nil means never) and
// is per solve, so one compiled Resident can serve requests with different
// deadlines.
func (r *Resident) Solve(x, b []float64, cancel func() bool) (*Stats, error) {
	a, s := r.a, r.s
	if n := a.Size(); len(x) != n || len(b) != n {
		return nil, fmt.Errorf("solver: size mismatch: operator %d, x %d, b %d", n, len(x), len(b))
	}
	st := &Stats{}
	s.st, s.half = st, false
	a.Load2(vecX, x, vecB, b) // the solve's one scatter
	zeroRHS, err := r.setup.Run()
	if err != nil {
		return nil, err
	}
	if zeroRHS {
		zero(x)
		st.Converged = true
		return st, nil
	}
	for s.k = 0; s.k < r.maxIter; s.k++ {
		// The cancel poll sits between iterations — between one program run
		// and the next — so a cancelled solve stops at a clean iteration
		// boundary and every completed iteration's arithmetic is untouched.
		if cancel != nil && cancel() {
			a.Store(x, vecX)
			return st, cancelErr(st)
		}
		prog := r.steady
		if s.k == 0 {
			prog = r.first
		}
		stopped, err := prog.Run()
		if err != nil {
			if errors.Is(err, ErrBreakdown) {
				a.Store(x, vecX)
				return st, err
			}
			return nil, err
		}
		if stopped {
			if s.half {
				if _, err := r.halfStep.Run(); err != nil {
					return nil, err
				}
			}
			st.Converged = true
			a.Store(x, vecX) // the solve's one gather
			return st, nil
		}
	}
	a.Store(x, vecX)
	return st, fmt.Errorf("%w after %d iterations (rel residual %.3e)", ErrNotConverged, st.Iterations, st.Residual)
}
