package solver

import (
	"errors"
	"fmt"
	"math"
)

// This file is the one statement of the Krylov recurrence and the one loop
// that iterates it. CG is compiled once (CompileCG) onto a ProgramSpace into a
// set-up program (‖b‖, r = b − A·x and the first direction) and an iteration
// program; a solve then loads its inputs once (Load2), runs the set-up program
// and the iteration program once per Krylov iteration, and stores the solution
// once (Store). Each program is the vector kernels of that stretch of the
// recurrence with the scalar bookkeeping attached as host actions (see
// program.go). The space decides how a program executes — a single SPMD plan
// over partitioned vectors on umesh.PartOperator, op by op over plain slices
// on a SliceSpace — and because every space evaluates the same per-element
// expressions and sums every reduction in one fixed global order, the solves
// agree bit for bit.

// Resident vector handles: the solver addresses its working set as fixed
// slots Vec(0..n-1) reserved up front, so repeated solves on one operator
// reuse the same storage and allocate nothing new. The iterate lives in vecX
// and the right-hand side in vecB — where Solve scatters its arguments and
// gathers the solution from.
const (
	vecX = Vec(0)
	vecB = Vec(1)

	cgR   = Vec(2)
	cgZ   = Vec(3)
	cgP   = Vec(4)
	cgAp  = Vec(5)
	cgLen = 6
)

// cgState is the scalar state of a resident CG, shared between the programs'
// ops (via pointers), their actions (via closure) and the solve driver.
type cgState struct {
	k         int // current iteration
	normB, rr float64
	tol, one  float64 // one is the constant 1.0 an op's *A1 can point at
	st        *Stats  // the running solve's report

	rz, rzNew, pap, alpha, beta float64
}

// cgSetup is the CG prologue as a phase program: ‖b‖ and r = b − A·x through
// the scratch vector cgAp, then z = M⁻¹·r with rz = ⟨r, z⟩ and p = z. A zero
// right-hand side stops the program, a non-finite one (a NaN or ±Inf entry —
// every later check would compare against NaN and never fire) fails it, both
// before x is touched. The ⟨r, r⟩ the fused op leaves in s.rr goes unread.
func cgSetup(s *cgState) []ProgOp {
	return []ProgOp{
		{Kind: OpDot, V1: vecB, V2: vecB, R1: &s.normB, Action: func() (bool, error) {
			s.normB = math.Sqrt(s.normB)
			if math.IsNaN(s.normB) || math.IsInf(s.normB, 0) {
				return false, fmt.Errorf("%w: non-finite right-hand side (‖b‖ = %v)", ErrBreakdown, s.normB)
			}
			return s.normB == 0, nil
		}},
		{Kind: OpApply, V1: cgAp, V2: vecX},
		{Kind: OpSubAxpyDot, V1: cgR, V2: vecB, V3: cgAp, A1: &s.one, R1: &s.rr},
		{Kind: OpPrecondDot, V1: cgZ, V2: cgR, R1: &s.rz},
		{Kind: OpCopy, V1: cgP, V2: cgZ},
	}
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

// Resident is CG compiled onto a ProgramSpace: the preconditioner is installed
// and the two programs are compiled once, and every Solve re-runs them on a
// new (x, b). The package-level CG is one compile plus one Solve; a caller
// that solves the same system many times (umesh.TransientSolver) keeps the
// Resident and pays the compile once.
//
// The operator's preconditioner and its vectors Vec(0..) belong to the
// Resident between Solves: installing another preconditioner on the operator
// invalidates it. Like its operator, a Resident is driven by one goroutine at
// a time.
type Resident struct {
	a           ProgramSpace
	maxIter     int
	s           *cgState
	setup, iter Program
}

// CompileCG compiles preconditioned conjugate gradients onto a.
func CompileCG(a ProgramSpace, opts Options) (*Resident, error) {
	opts = opts.withDefaults()
	if err := a.SetPrecond(opts.PrecondKind, opts.PrecondDiag); err != nil {
		return nil, err
	}
	a.Reserve(cgLen)
	s := &cgState{tol: opts.Tol, one: 1}
	setup, err := a.CompileProgram(cgSetup(s))
	if err != nil {
		return nil, err
	}
	iter, err := a.CompileProgram(cgProgram(s, opts.PrecondKind.operatorBuilt()))
	if err != nil {
		return nil, err
	}
	return &Resident{a: a, maxIter: opts.MaxIter, s: s, setup: setup, iter: iter}, nil
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
	s.st = st
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
		stopped, err := r.iter.Run()
		if err != nil {
			if errors.Is(err, ErrBreakdown) {
				a.Store(x, vecX)
				return st, err
			}
			return nil, err
		}
		if stopped {
			st.Converged = true
			a.Store(x, vecX) // the solve's one gather
			return st, nil
		}
	}
	a.Store(x, vecX)
	return st, fmt.Errorf("%w after %d iterations (rel residual %.3e)", ErrNotConverged, st.Iterations, st.Residual)
}
