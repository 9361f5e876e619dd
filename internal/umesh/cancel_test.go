package umesh

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/physics"
	"repro/internal/solver"
)

// TestTransientCancelReturnsStepError: a tripped cancel stops the Krylov
// loop at an iteration boundary and Solve surfaces it as a *StepError
// wrapping solver.ErrCancelled, with the failing solve's partial stats and
// the historical "umesh: step N: ..." message shape.
func TestTransientCancelReturnsStepError(t *testing.T) {
	u, opts := transientFixture(t)
	part, err := RCB(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	opts.Solver.Cancel = func() bool {
		polls++
		return polls > 2 // two iterations of step 0, then stop
	}
	_, err = RunTransientPartitioned(u, part, physics.DefaultFluid(), opts)
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("want solver.ErrCancelled, got %v", err)
	}
	var se *StepError
	if !errors.As(err, &se) {
		t.Fatalf("want *StepError, got %T: %v", err, err)
	}
	if se.Step != 0 {
		t.Errorf("failed at step %d, want 0", se.Step)
	}
	if se.Stats == nil || se.Stats.Iterations != 2 {
		t.Errorf("partial stats = %+v, want 2 completed iterations", se.Stats)
	}
	if se.Stats != nil && len(se.Stats.History) != se.Stats.Iterations {
		t.Errorf("history length %d != iterations %d", len(se.Stats.History), se.Stats.Iterations)
	}
	if !strings.HasPrefix(err.Error(), "umesh: step 0: ") {
		t.Errorf("message %q lost the umesh: step N: prefix", err.Error())
	}
}

// TestStepErrorKeepsItsHistory: a failed step's StepError carries its own
// copy of the residual history, so the next Solve on the same solver, which
// records into the buffer the Krylov solve reuses, leaves it as it was.
func TestStepErrorKeepsItsHistory(t *testing.T) {
	u, opts := transientFixture(t)
	ts, err := NewTransientSolver(u, nil, physics.DefaultFluid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	polls := 0
	req := TransientOptions{Steps: 1, Wells: opts.Wells}
	req.Solver.Cancel = func() bool {
		polls++
		return polls > 3
	}
	_, err = ts.Solve(req)
	var se *StepError
	if !errors.As(err, &se) || se.Stats == nil || len(se.Stats.History) != 3 {
		t.Fatalf("want a *StepError with 3 iterations of history, got %v", err)
	}
	kept := append([]float64(nil), se.Stats.History...)
	req.Solver.Cancel = nil
	req.Wells = []Well{{Cell: u.NumCells / 2, Rate: 1}, {Cell: u.NumCells - 1, Rate: -1}} // another history
	if _, err := ts.Solve(req); err != nil {
		t.Fatal(err)
	}
	for k, v := range se.Stats.History {
		if v != kept[k] {
			t.Fatalf("history[%d] of the failed step became %g after the next Solve, was %g", k, v, kept[k])
		}
	}
}

// TestTransientSolverCancelFromSolverOptions: a resident solver polls the
// request's Solver.Cancel, and the compiled template's when the request sets
// none — a tripped one ends the step in a *StepError wrapping
// solver.ErrCancelled before the first iteration.
func TestTransientSolverCancelFromSolverOptions(t *testing.T) {
	u, opts := transientFixture(t)
	part, err := RCB(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	tripped := func() bool { return true }
	check := func(name string, tmpl solver.Options, req TransientOptions) {
		t.Helper()
		o := opts
		o.Solver = tmpl
		s, err := NewTransientSolver(u, part, physics.DefaultFluid(), o)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		_, err = s.Solve(req)
		var se *StepError
		if !errors.As(err, &se) || !errors.Is(err, solver.ErrCancelled) {
			t.Fatalf("%s: want *StepError wrapping ErrCancelled, got %v", name, err)
		}
		if se.Step != 0 || se.Stats == nil || se.Stats.Iterations != 0 {
			t.Errorf("%s: cancelled at step %d after %+v, want step 0 with 0 iterations", name, se.Step, se.Stats)
		}
	}
	check("request", solver.Options{}, TransientOptions{Solver: solver.Options{Cancel: tripped}})
	check("template", solver.Options{Cancel: tripped}, TransientOptions{})
}

// TestTransientCancelMidRun: steps completed before the cancel trips are
// unaffected; the StepError names the step that was cancelled.
func TestTransientCancelMidRun(t *testing.T) {
	u, opts := transientFixture(t)
	stepsStarted := 0
	opts.BeforeSolve = func(cancel func() bool) error {
		if cancel == nil {
			t.Fatal("BeforeSolve received a nil cancel hook")
		}
		stepsStarted++
		return nil
	}
	opts.Solver.Cancel = func() bool { return stepsStarted >= 2 }
	_, err := RunTransientPartitioned(u, nil, physics.DefaultFluid(), opts)
	var se *StepError
	if !errors.As(err, &se) || !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("want *StepError wrapping ErrCancelled, got %v", err)
	}
	if se.Step != 1 {
		t.Errorf("cancelled at step %d, want 1 (step 0 should complete)", se.Step)
	}
	if se.Stats == nil || se.Stats.Iterations != 0 {
		t.Errorf("cancelled step ran %+v, want 0 iterations", se.Stats)
	}
}

// TestTransientBeforeSolveHook: the hook runs once per step, and a returned
// error aborts that step as a *StepError with no solver stats (the Krylov
// loop never started).
func TestTransientBeforeSolveHook(t *testing.T) {
	u, opts := transientFixture(t)
	fl := physics.DefaultFluid()

	calls := 0
	opts.BeforeSolve = func(func() bool) error { calls++; return nil }
	if _, err := RunTransientPartitioned(u, nil, fl, opts); err != nil {
		t.Fatal(err)
	}
	if calls != opts.Steps {
		t.Errorf("hook ran %d times, want once per step (%d)", calls, opts.Steps)
	}

	boom := errors.New("injected failure")
	opts.BeforeSolve = func(func() bool) error {
		calls++
		if calls == opts.Steps+2 { // second step of this run
			return boom
		}
		return nil
	}
	_, err := RunTransientPartitioned(u, nil, fl, opts)
	var se *StepError
	if !errors.As(err, &se) || !errors.Is(err, boom) {
		t.Fatalf("want *StepError wrapping the injected failure, got %v", err)
	}
	if se.Step != 1 || se.Stats != nil {
		t.Errorf("StepError = {Step:%d Stats:%v}, want step 1 with nil stats", se.Step, se.Stats)
	}
}

// TestTransientCancelNeverTrippedIsInvisible: an installed-but-quiet cancel
// hook must not change the result in any bit — same histories, same field.
func TestTransientCancelNeverTrippedIsInvisible(t *testing.T) {
	u, opts := transientFixture(t)
	part, err := RCB(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	fl := physics.DefaultFluid()
	plain, err := RunTransientPartitioned(u, part, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Solver.Cancel = func() bool { return false }
	hooked, err := RunTransientPartitioned(u, part, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := range plain.Steps {
		if plain.Steps[s].Iterations != hooked.Steps[s].Iterations ||
			plain.Steps[s].Residual != hooked.Steps[s].Residual {
			t.Fatalf("step %d diverged under a quiet cancel hook", s)
		}
	}
	for i := range plain.Pressure {
		if plain.Pressure[i] != hooked.Pressure[i] {
			t.Fatalf("pressure[%d] diverged: %g vs %g", i, plain.Pressure[i], hooked.Pressure[i])
		}
	}
}
