package main

import (
	"bytes"
	"testing"
)

func sameRequests(a, b []plannedRequest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) || a[i].Due != b[i].Due || a[i].Class != b[i].Class {
			return false
		}
	}
	return true
}

func TestServePlanIsDeterministic(t *testing.T) {
	sz := sizesFor(nominalRunSeconds, false)
	p1, p2, other := newServePlan(7, sz, 103), newServePlan(7, sz, 103), newServePlan(8, sz, 103)
	for _, part := range []struct {
		name    string
		a, b, c []plannedRequest
	}{
		{"hot", p1.Hot, p2.Hot, other.Hot},
		{"closed", p1.Closed, p2.Closed, other.Closed},
		{"open", p1.Open, p2.Open, other.Open},
	} {
		if !sameRequests(part.a, part.b) {
			t.Errorf("%s: the same seed gave different bodies or due times", part.name)
		}
		if sameRequests(part.a, part.c) {
			t.Errorf("%s: another seed gave the same bodies and due times", part.name)
		}
	}
	if !sameRequests(p1.Cold, other.Cold) {
		t.Error("cold requests carry the scenario defaults and must not depend on the seed")
	}
}

func TestServePlanShape(t *testing.T) {
	sz := sizesFor(nominalRunSeconds, false)
	plan := newServePlan(1, sz, 103)
	if len(plan.Hot) != hotSetSize || len(plan.Closed) != 103 || len(plan.Open) != sz.openN || len(plan.Cold) != 2 {
		t.Fatalf("plan sizes: hot %d closed %d open %d cold %d", len(plan.Hot), len(plan.Closed), len(plan.Open), len(plan.Cold))
	}
	// Unique payloads everywhere outside the hot picks, or a miss would hit.
	seen := make(map[string]bool)
	for _, pr := range append(append([]plannedRequest(nil), plan.Hot...), plan.Closed...) {
		if seen[string(pr.Body)] {
			t.Fatalf("duplicate payload %s", pr.Body)
		}
		seen[string(pr.Body)] = true
	}
	var counts [3]int
	work := 0
	for i, pr := range plan.Open {
		counts[pr.Class]++
		work += pr.Work
		if pr.Class != classHot {
			if seen[string(pr.Body)] {
				t.Fatalf("open-loop payload %s is not unique", pr.Body)
			}
			seen[string(pr.Body)] = true
		}
		if i > 0 && pr.Due < plan.Open[i-1].Due {
			t.Fatal("open loop is not in due order")
		}
		if pr.Due < 0 || pr.Due.Seconds() >= plan.OpenSeconds {
			t.Fatalf("due time %v outside the %g s schedule", pr.Due, plan.OpenSeconds)
		}
	}
	if counts != [3]int{40, 45, 15} {
		t.Errorf("class counts hot/unique/long = %v, want 40/45/15 of 100", counts)
	}
	// Every seed offers the same work; only its arrangement differs.
	otherWork := 0
	for _, pr := range newServePlan(2, sz, 103).Open {
		otherWork += pr.Work
	}
	if work != otherWork {
		t.Errorf("offered work differs between seeds: %d vs %d", work, otherWork)
	}
}

func TestUsolveRequestIsSeeded(t *testing.T) {
	sz := sizesFor(nominalRunSeconds, false)
	a, b, c := usolveRequest(3, sz), usolveRequest(3, sz), usolveRequest(4, sz)
	if a.Wells[0] != b.Wells[0] || a.Wells[1] != b.Wells[1] {
		t.Error("the same seed drew different wells")
	}
	if a.Wells[1] == c.Wells[1] {
		t.Error("another seed drew the same producer and rate")
	}
	cells, outer := radialCells(sz.rings, sz.sectors, sz.refineEvery)
	if cells != 15360 {
		t.Errorf("default radial mesh has %d cells, want the 15 360 of the committed records", cells)
	}
	inj, prod := a.Wells[0], a.Wells[1]
	if inj.Cell != 0 || prod.Cell < outer || prod.Cell >= cells {
		t.Errorf("wells %+v: want the injector at cell 0 and the producer on the outermost ring [%d,%d)", a.Wells, outer, cells)
	}
	if inj.Rate < 1 || inj.Rate >= 3 || inj.Rate != -prod.Rate {
		t.Errorf("rates %g / %g: want a balanced pair in [1, 3)", inj.Rate, prod.Rate)
	}
}
