package serve

import (
	"repro/internal/umesh"
)

// OneShot runs a request as a fresh compile-and-solve cycle — no cache, no
// resident engine, no reuse — exactly what `fvsim`-style one-shot tooling
// does. It is the reference a served solve must match bit-for-bit: the
// serving layer's cache and engine reuse must be invisible in the numbers,
// and the bench and the test suite both assert a served response's
// PressureSHA256 equals OneShot's.
func OneShot(req SolveRequest) (*umesh.TransientResult, error) {
	if err := req.Scenario.Validate(0); err != nil {
		return nil, err
	}
	comp, err := req.Scenario.compile()
	if err != nil {
		return nil, err
	}
	opts := comp.tmpl
	ro := req.transientOptions()
	opts.Steps = ro.Steps
	if len(ro.Wells) > 0 {
		opts.Wells = ro.Wells
	}
	return umesh.RunTransientPartitioned(comp.u, comp.part, comp.fl, opts)
}
