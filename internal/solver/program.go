package solver

// This file defines the phase-program representation of the Krylov solves and
// the one interface a space of vectors implements to run them. The solver
// (resident.go) describes its set-up and one iteration each as a fixed list
// of ProgOps — vector kernels with scalar inputs read through pointers at run
// time, reduction results written through pointers, and host actions (the α/β
// recurrences, breakdown checks, convergence tests) attached to the op whose
// results they consume. There are two ProgramSpaces: umesh.PartOperator
// compiles a list into its own execution machinery — an exec.Plan: one SPMD
// pass per run with the counted minimum of barriers, actions running inside
// the barriers — and SliceSpace (slicespace.go) runs it op by op over plain
// slices. A new vector op is one OpKind here, one SliceSpace case (its
// specification) and one shard kernel with its CompileProgram case in umesh.

// OpKind enumerates the vector kernels a ProgOp can request. The vector
// operands are named V1..V5, the scalar input A1 (dereferenced when the op
// runs, so actions earlier in the same program can set it), reduction
// results R1/R2.
type OpKind uint8

const (
	// OpApply: V1 = A·V2.
	OpApply OpKind = iota
	// OpApplyDot: V1 = A·V2 and *R1 = ⟨V3, V1⟩, fused.
	OpApplyDot
	// OpDot: *R1 = ⟨V1, V2⟩.
	OpDot
	// OpCopy: V1 = V2.
	OpCopy
	// OpXpby: V1 = V2 + *A1·V1.
	OpXpby
	// OpSubAxpyDot: V1 = V2 − *A1·V3 and *R1 = ⟨V1, V1⟩, fused.
	OpSubAxpyDot
	// OpCGStep: V1 += *A1·V2; V3 −= *A1·V4 and *R1 = ⟨V3, V3⟩, fused.
	OpCGStep
	// OpCGStepPre: OpCGStep plus the diagonal preconditioner application
	// V5 = M⁻¹·V3 and *R2 = ⟨V3, V5⟩, all in one pass. Only emitted when
	// the active preconditioner is elementwise (Jacobi); the
	// operator-built rungs need their own phases and use OpCGStep +
	// OpPrecondDot instead.
	OpCGStepPre
	// OpPrecondDot: V1 = M⁻¹·V2 and *R1 = ⟨V2, V1⟩, fused.
	OpPrecondDot
)

// ProgOp is one step of a phase program: a vector kernel plus an optional
// host Action that runs after the kernel (and its reductions) complete.
// Actions are where the solver's scalar recurrence lives; returning
// stop=true ends the program run early (convergence), an error aborts it
// (breakdown).
type ProgOp struct {
	Kind               OpKind
	V1, V2, V3, V4, V5 Vec
	A1                 *float64
	R1, R2             *float64
	Action             func() (stop bool, err error)
}

// Program is a compiled phase program. Run executes one full pass — for the
// resident solver, the solve's set-up or one Krylov iteration — and reports
// whether an action stopped it early.
type Program interface {
	Run() (stopped bool, err error)
}

// ProgramSpace is where a solve's vectors live and its programs run: it holds
// the Krylov working set in its own (typically partitioned) layout and
// executes compiled phase programs there, so a solve is scatter (Load2) →
// set-up program → N × iteration program → gather (Store), and no vector
// round-trips through global storage in between.
//
// Contract, so solves on different spaces agree exactly:
//   - each op evaluates the expression its OpKind documents, per element;
//   - every reduction is a deterministic sum in one fixed global order, the
//     same order for every runtime configuration (worker count, part count);
//   - vector contents persist between programs until overwritten.
//
// A ProgramSpace is driven by one goroutine at a time.
type ProgramSpace interface {
	// Size returns the vector length.
	Size() int
	// Reserve ensures resident vectors Vec(0)..Vec(n-1) exist. Growing may
	// allocate; re-reserving an existing count must not.
	Reserve(n int)
	// Load2 scatters two global vectors into resident vectors in one pass —
	// the solve's single scatter.
	Load2(v1 Vec, src1 []float64, v2 Vec, src2 []float64)
	// Store gathers a resident vector into global order — the solve's single
	// gather.
	Store(dst []float64, v Vec)
	// SetPrecond installs a rung of the preconditioner ladder as the M⁻¹ of
	// OpPrecondDot/OpCGStepPre, replacing the previous one, built from the
	// diagonal of the space's own system. Jacobi (the zero kind) applies
	// z_i = (1/d_i)·r_i. The kind and the diagonal are validated with
	// CheckPrecond first. Programs may freeze the installed preconditioner
	// when compiled, so install first.
	SetPrecond(kind PrecondKind) error
	// CompileProgram lowers a phase program onto the operator's execution
	// machinery. The ops slice (and the scalars it points to) must outlive
	// the returned Program.
	CompileProgram(ops []ProgOp) (Program, error)
}
