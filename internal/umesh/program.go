package umesh

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/solver"
)

// This file is PartOperator's only execution entry: CompileProgram lowers a
// solver phase program (a solve's set-up or one Krylov iteration as a fixed
// ProgOp list) into a single exec.Plan. Executing the plan runs the whole
// list as one SPMD pass — one pool dispatch and one barrier per plan step.
// The solver's scalar recurrence rides along as barrier actions: tree folds
// of the block partials, the α/β updates, breakdown checks and the
// convergence test all run exactly once, on whichever worker arrives last,
// between the step that produced their inputs and the step that consumes
// them.
//
// Step budget (the counted minimum asserted by TestCompiledCGIterationStepCount):
// a Jacobi/identity CG iteration compiles to 3 steps at parts=1 (fused
// apply+dot, fused CGStep+precond+both dots, Xpby) and 4 steps when any part
// exchanges halo data (the application splits into push+interior and
// frontier around the barrier that orders the halo writes).
//
// Compilation freezes the operator's preconditioner configuration: preKind,
// the Chebyshev scalars and the AMG level are read at compile time, so a
// program must be compiled after the preconditioner is installed and
// recompiled if it changes. The resident solver does exactly that
// (SetPrecond runs before CompileProgram).
//
// Adding a vector op is one shard kernel plus one case in CompileProgram (and
// its solver.SliceSpace case); adding a preconditioner rung is its kernels
// plus one case in emitPrecond, and the reference rung composed from the same
// kernels in precond.go.
//
// The scalar input (*A1) is dereferenced inside the step's phase closures at
// run time: the action that sets it runs at the barrier before the step, so
// every worker reads the settled value.

// compiledProgram is a solver phase program lowered onto the operator's
// worker pool.
type compiledProgram struct {
	o    *PartOperator
	plan *exec.Plan
}

// Run executes one pass of the program as a single plan dispatch.
func (p *compiledProgram) Run() (bool, error) {
	stopped, err := p.plan.Execute()
	p.o.syncCounters()
	return stopped, err
}

// CompileProgram implements solver.ProgramSpace.
func (o *PartOperator) CompileProgram(ops []solver.ProgOp) (solver.Program, error) {
	b := &planBuilder{o: o}
	for i := range ops {
		op := &ops[i]
		v1, v2, v3, v4, v5 := int(op.V1), int(op.V2), int(op.V3), int(op.V4), int(op.V5)
		a1 := op.A1
		switch op.Kind {
		case solver.OpApply:
			b.emitApply(v2, v1, 0, nil, false)
		case solver.OpApplyDot:
			b.emitApply(v2, v1, v3, op.R1, false)
		case solver.OpDot:
			b.emitDot(v1, v2, op.R1)
		case solver.OpCopy:
			b.add(func(shard int) error { o.shardCopy(shard, v1, v2); return nil }, &o.Phase.Reduce)
		case solver.OpXpby:
			b.add(func(shard int) error { o.shardXpby(shard, v1, v2, *a1); return nil }, &o.Phase.Reduce)
		case solver.OpSubAxpyDot:
			b.add(func(shard int) error { o.shardSubAxpyDot(shard, v1, v2, v3, *a1); return nil },
				&o.Phase.Reduce, b.foldAct(op.R1))
		case solver.OpCGStep:
			b.add(func(shard int) error { o.shardCGStep(shard, v1, v2, v3, v4, *a1); return nil },
				&o.Phase.Reduce, b.foldAct(op.R1))
		case solver.OpCGStepPre:
			b.add(func(shard int) error { o.shardCGStepPre(shard, v1, v2, v3, v4, v5, *a1); return nil },
				&o.Phase.Reduce, b.fold2Act(op.R1, op.R2))
		case solver.OpPrecondDot:
			b.emitPrecond(v1, v2, op.R1)
		default:
			return nil, fmt.Errorf("umesh: cannot compile program op kind %d", op.Kind)
		}
		// The solver's action runs at the barrier of the op's last step, after
		// the folds (and the application accounting) that produce its inputs.
		if op.Action != nil {
			last := &b.steps[len(b.steps)-1]
			last.Actions = append(last.Actions, op.Action)
		}
	}
	return &compiledProgram{o: o, plan: o.l.pool.NewPlan(b.steps)}, nil
}

// planBuilder accumulates a plan's steps during compilation — the Krylov
// programs' here and, through add alone, PartEngine's application plan. All
// closure allocation happens here, once per compile; executing the plan
// allocates nothing.
type planBuilder struct {
	o     *PartOperator
	steps []exec.Step
}

func (b *planBuilder) add(phase func(int) error, bucket *float64, acts ...func() (bool, error)) {
	b.steps = append(b.steps, exec.Step{Phase: phase, Actions: acts, Bucket: bucket})
}

// addLocal adds a vector-algebra step that touches only the part's own state —
// how the layout-free rung kernels of precond.go become plan steps.
func (b *planBuilder) addLocal(kernel func(op *opPart), acts ...func() (bool, error)) {
	o := b.o
	b.add(func(shard int) error { kernel(o.parts[shard]); return nil }, &o.Phase.Reduce, acts...)
}

// foldAct is the canonical reduction as a barrier action: treeFold the block
// partials into the op's result before the solver action reads it.
func (b *planBuilder) foldAct(r1 *float64) func() (bool, error) {
	o := b.o
	return func() (bool, error) {
		*r1 = treeFold(o.blockSums)
		return false, nil
	}
}

func (b *planBuilder) fold2Act(r1, r2 *float64) func() (bool, error) {
	o := b.o
	return func() (bool, error) {
		*r1 = treeFold(o.blockSums)
		*r2 = treeFold(o.blockSums2)
		return false, nil
	}
}

// emitApply lowers an application dst = A·x: the fused push+interior step,
// and — only when some part actually exchanges halo data or has frontier rows
// — the frontier step after the barrier that orders the halo writes. A
// non-nil r1 fuses the inner product *r1 = ⟨w, dst⟩ into the sweep; scratch
// redirects dst to each part's pw, the destination of the applications inside
// the Chebyshev and AMG rungs (no solver vector burned). The reduction fold
// and the communication accounting run at the final step's barrier.
func (b *planBuilder) emitApply(xv, dstv, wv int, r1 *float64, scratch bool) {
	o := b.o
	withDot := r1 != nil
	var acts []func() (bool, error)
	if withDot {
		acts = append(acts, b.foldAct(r1))
	}
	acts = append(acts, func() (bool, error) { o.finishApply(); return false, nil })
	send := func(shard int) error { o.applySend(shard, xv, dstv, wv, withDot, scratch); return nil }
	if !o.l.split {
		b.add(send, &o.Phase.Compute, acts...)
		return
	}
	b.add(send, &o.Phase.Compute)
	b.add(func(shard int) error { o.applyFrontier(shard, xv, dstv, wv, withDot, scratch); return nil },
		&o.Phase.Compute, acts...)
}

// emitDot lowers an inner product *r1 = ⟨a, b⟩.
func (b *planBuilder) emitDot(av, bv int, r1 *float64) {
	o := b.o
	b.add(func(shard int) error { o.shardDot(shard, av, bv); return nil }, &o.Phase.Reduce, b.foldAct(r1))
}

// emitPrecond lowers z = M⁻¹·r with *r1 = ⟨r, z⟩ for the preconditioner
// installed at compile time — the one place each rung's step sequence is
// written. The elementwise default is one fused step; the ladder rungs expand
// into their step sequences, with the host-serial coarse solve of the AMG
// V-cycle running as a barrier action (host work belongs in actions: a nested
// dispatch from inside a plan would deadlock the pool). The canonical ⟨r, z⟩
// reduction is fused into the default rung's single step and a separate dot
// step for the operator-built rungs — the same summation tree the reference
// space's separate reduction produces.
func (b *planBuilder) emitPrecond(zv, rv int, r1 *float64) {
	o := b.o
	switch o.preKind {
	case solver.PrecondSSOR:
		// Couplings outside a block — every halo neighbor included — are not in
		// the lists, so the sweep reads only part-local data: no exchange.
		b.addLocal(func(op *opPart) { op.ssor.sweep(op.vecs[zv], op.vecs[rv], op.invDiag, op.dLoc) })
	case solver.PrecondChebyshev:
		cf := o.cheb
		b.addLocal(func(op *opPart) { chebInit(op.owned(zv), op.pd, op.invDiag, op.vecs[rv], cf.invTheta) })
		for _, c := range cf.rounds() {
			b.emitApply(zv, 0, 0, nil, true)
			b.addLocal(func(op *opPart) { chebStep(op.owned(zv), op.pd, op.invDiag, op.vecs[rv], op.pw, c[0], c[1]) })
		}
	case solver.PrecondAMG:
		b.addLocal(func(op *opPart) { amgPre(op.owned(zv), op.invDiag, op.vecs[rv]) })
		b.emitApply(zv, 0, 0, nil, true)
		// Aggregates are block-bounded and parts own whole blocks, so the
		// parts' restrictions are disjoint writes into the shared coarse vector.
		b.addLocal(func(op *opPart) {
			for a, id := range op.aggID {
				o.coarseR[id] = amgResidualSum(op.aggCells[op.aggPtr[a]:op.aggPtr[a+1]], op.vecs[rv], op.pw)
			}
		}, func() (bool, error) { o.amg.solveCoarse(o.coarseR, o.coarseE); return false, nil })
		b.addLocal(func(op *opPart) { amgProlong(op.owned(zv), o.coarseE, op.aggOfLoc) })
		b.emitApply(zv, 0, 0, nil, true)
		b.addLocal(func(op *opPart) { amgPost(op.owned(zv), op.invDiag, op.vecs[rv], op.pw) })
	default:
		b.add(func(shard int) error { o.shardPreDot(shard, zv, rv); return nil }, &o.Phase.Reduce, b.foldAct(r1))
		return
	}
	b.emitDot(rv, zv, r1)
}
