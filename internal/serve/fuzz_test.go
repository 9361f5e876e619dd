package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSolveRequest fuzzes the decode stage — the boundary every byte from
// outside crosses first. Whatever the body: decoding and normalising never
// panic (nor walk an unbounded mesh estimate), normalising is idempotent
// and does not move the cache key, anything accepted also passes
// Scenario.Validate as spelled and as normalised, and equal specs key
// equally — an accepted request re-encoded and decoded again lands on the
// same scenario key and the same payload key. Seeded from the bodies the
// HTTP tests post.
func FuzzSolveRequest(f *testing.F) {
	for _, body := range []string{
		testBody(""),
		testBody(`"steps":2`),
		testBody(`"steps":-1`),
		testBody(`"steps":2000000000`),
		testBody(`"no_memo":true,"return_pressure":true`),
		testBody(`"deadline_ms":1,"no_memo":true`),
		testBody(`"wells":[{"cell":0,"rate":1.5},{"cell":47,"rate":-1.5}]`),
		testBody(`"wells":[{"cell":-1,"rate":2}]`),
		testBody(`"wells":[{"cell":0,"rate":0}]`),
		testBody(`"wells":[{"cell":0,"rate":1e154},{"cell":47,"rate":1e154}]`),
		`{"scenario":`,
		`{"scenario":{},"bogus":1}`,
		`{"scenario":{"mesh":"tetrahedral"}}`,
		`{"scenario":{"precond":"ilu"}}`,
		`{"scenario":{"precond":"ssor"}}`,
		`{"scenario":{"rings":6,"sectors":8,"parts":3}}`,
		`{"scenario":{"rings":6,"sectors":8,"parts":2,"max_iter":2,"tol":1e-30}}`,
		`{"scenario":{"mesh":"radial","rings":64,"sectors":64,"refine_every":16,"parts":8,"workers":2,"precond":"amg","dt_seconds":60,"porosity":0.3,"viscosity":1e-4,"compressibility":1e-9}}`,
		`{"scenario":{"rings":9000000000000000000,"sectors":3}}`,
		`{"scenario":{"rings":80,"sectors":3,"refine_every":1}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req, req2 SolveRequest
		err := decodeRequest(bytes.NewReader(body), DefaultMaxCells, &req)
		n := req.Scenario.Normalized()
		if n.Normalized() != n {
			t.Fatalf("normalising is not idempotent: %+v → %+v", n, n.Normalized())
		}
		if n.Key() != req.Scenario.Key() {
			t.Fatalf("normalising moved the cache key of %+v", req.Scenario)
		}
		if err != nil {
			return
		}
		if err := req.Scenario.Validate(DefaultMaxCells); err != nil {
			t.Fatalf("accepted request fails Validate: %v", err)
		}
		if err := n.Validate(DefaultMaxCells); err != nil {
			t.Fatalf("accepted request fails Validate once normalised: %v", err)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		if err := decodeRequest(bytes.NewReader(again), DefaultMaxCells, &req2); err != nil {
			t.Fatalf("accepted request rejected once re-encoded (%s): %v", again, err)
		}
		if req2.Scenario.Key() != req.Scenario.Key() || req2.payloadKey() != req.payloadKey() {
			t.Fatalf("equal specs key differently: %s", again)
		}
	})
}
