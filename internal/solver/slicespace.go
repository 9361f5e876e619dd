package solver

import "fmt"

// SliceSpace is the reference ProgramSpace: any Operator, the identity
// layout, and phase programs executed op by op over global-order slices. It is
// what CG runs on when the operator has no layout of its own, and — with
// umesh supplying the canonical blocked reduction and the rung builder
// (umesh.ReferenceSpace) — the serial oracle every partitioned solve is
// compared against bit for bit. Each op evaluates the expression its OpKind
// documents and nothing is fused, so a case here is also the specification a
// partitioned kernel must reproduce.
//
// Load2 binds its handles to the caller's slices instead of copying them, so
// a solve works in place on x and b; the space owns only the recurrence's
// work vectors (allocated on first use, kept between solves) and the
// installed preconditioner.
type SliceSpace struct {
	Operator
	// Dot, when non-nil, takes every inner product in place of the
	// left-to-right sum — the hook that gives the reference the summation
	// tree of the runtime it is the oracle of.
	Dot func(a, b []float64) float64
	// Rung, when non-nil, builds the operator-built rungs (Chebyshev, AMG)
	// as z = M⁻¹·r over global-order slices; diag is the operator's
	// diagonal, already validated. Without it only Jacobi can be installed.
	Rung func(kind PrecondKind, diag []float64) (func(z, r []float64), error)

	vecs [][]float64
	pre  func(z, r []float64) // the installed M⁻¹
}

// Reserve implements ProgramSpace.
func (s *SliceSpace) Reserve(n int) {
	for len(s.vecs) < n {
		s.vecs = append(s.vecs, nil)
	}
}

// vec resolves a handle: the caller's slice where Load2 bound one, else the
// space's own vector.
func (s *SliceSpace) vec(h Vec) []float64 {
	if s.vecs[h] == nil {
		s.vecs[h] = make([]float64, s.Size())
	}
	return s.vecs[h]
}

// Load2 implements ProgramSpace by binding: until the next Load2, v1 and v2
// are src1 and src2 themselves.
func (s *SliceSpace) Load2(v1 Vec, src1 []float64, v2 Vec, src2 []float64) {
	s.vecs[v1], s.vecs[v2] = src1, src2
}

// Store implements ProgramSpace (a no-op onto the slice v is bound to).
func (s *SliceSpace) Store(dst []float64, v Vec) { copy(dst, s.vec(v)) }

// SetPrecond implements ProgramSpace with the operator's own diagonal.
func (s *SliceSpace) SetPrecond(kind PrecondKind) error {
	diag := s.Diagonal()
	if err := CheckPrecond(s.Size(), kind, diag); err != nil {
		return err
	}
	if kind.operatorBuilt() {
		if s.Rung == nil {
			return fmt.Errorf("solver: operator %T cannot build the %q preconditioner", s.Operator, kind)
		}
		pre, err := s.Rung(kind, diag)
		if err != nil {
			return err
		}
		s.pre = pre
	} else {
		inv := make([]float64, len(diag))
		for i, d := range diag {
			inv[i] = 1 / d
		}
		s.pre = func(z, r []float64) {
			for i := range z {
				z[i] = inv[i] * r[i]
			}
		}
	}
	return nil
}

// CompileProgram implements ProgramSpace: the program is the op list itself.
func (s *SliceSpace) CompileProgram(ops []ProgOp) (Program, error) {
	for i := range ops {
		if ops[i].Kind > OpPrecondDot {
			return nil, fmt.Errorf("solver: cannot run program op kind %d", ops[i].Kind)
		}
	}
	return &sliceProgram{s: s, ops: ops}, nil
}

type sliceProgram struct {
	s   *SliceSpace
	ops []ProgOp
}

// Run executes the ops in order, each followed by its action.
func (p *sliceProgram) Run() (bool, error) {
	s := p.s
	for i := range p.ops {
		op := &p.ops[i]
		switch op.Kind {
		case OpApply, OpApplyDot:
			if err := s.Apply(s.vec(op.V1), s.vec(op.V2)); err != nil {
				return false, err
			}
			if op.Kind == OpApplyDot {
				*op.R1 = s.dot(s.vec(op.V3), s.vec(op.V1))
			}
		case OpDot:
			*op.R1 = s.dot(s.vec(op.V1), s.vec(op.V2))
		case OpCopy:
			copy(s.vec(op.V1), s.vec(op.V2))
		case OpXpby:
			y, x, b := s.vec(op.V1), s.vec(op.V2), *op.A1
			for i := range y {
				y[i] = x[i] + b*y[i]
			}
		case OpSubAxpyDot:
			d, x, y, a := s.vec(op.V1), s.vec(op.V2), s.vec(op.V3), *op.A1
			for i := range d {
				d[i] = x[i] - a*y[i]
			}
			*op.R1 = s.dot(d, d)
		case OpCGStep, OpCGStepPre:
			r := s.vec(op.V3)
			axpy(s.vec(op.V1), *op.A1, s.vec(op.V2))
			axpy(r, -*op.A1, s.vec(op.V4))
			*op.R1 = s.dot(r, r)
			if op.Kind == OpCGStepPre {
				s.pre(s.vec(op.V5), r)
				*op.R2 = s.dot(r, s.vec(op.V5))
			}
		case OpPrecondDot:
			s.pre(s.vec(op.V1), s.vec(op.V2))
			*op.R1 = s.dot(s.vec(op.V2), s.vec(op.V1))
		}
		if op.Action != nil {
			if stop, err := op.Action(); stop || err != nil {
				return stop, err
			}
		}
	}
	return false, nil
}

// dot is the space's inner product.
func (s *SliceSpace) dot(a, b []float64) float64 {
	if s.Dot != nil {
		return s.Dot(a, b)
	}
	return dot(a, b)
}

// axpy computes y += α·x.
func axpy(y []float64, alpha float64, x []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}
