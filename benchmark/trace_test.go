package main

import (
	"math"
	"testing"
)

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	if id != 0 || tr.children(id, []string{"y"}, []float64{1}) != nil {
		t.Error("a nil tracer must hand out id 0 and no children")
	}
}

func TestSelfTimeAccounting(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 4, End: 6},
		{ID: 4, Parent: 2, Name: "a.inner", Start: 2, End: 3},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 5, 2: 2, 3: 2, 4: 1} {
		if math.Abs(self[id]-want) > 1e-12 {
			t.Errorf("self[%d] = %g, want %g", id, self[id], want)
		}
	}
	if e := partsError(spans); e != 0 {
		t.Errorf("parts error = %g, want 0: children lie inside their parents", e)
	}
	byName := selfByName(spans)
	if byName["op"] != 5 || byName["a.inner"] != 1 {
		t.Errorf("selfByName = %v", byName)
	}

	// Overlapping children count once in the parent's self time, and the
	// overlap shows as a parts error.
	overlap := []span{
		{ID: 1, Parent: 0, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 0, End: 6},
		{ID: 3, Parent: 1, Start: 4, End: 8},
	}
	if got := selfTimes(overlap)[1]; math.Abs(got-2) > 1e-12 {
		t.Errorf("self with overlapping children = %g, want 2", got)
	}
	if e := partsError(overlap); math.Abs(e-0.2) > 1e-12 {
		t.Errorf("parts error = %g, want 0.2 (children sum 10 + self 2 against 10)", e)
	}
}

func TestSynthesisedChildrenNeverExceedParent(t *testing.T) {
	tr := newTracer()
	id := tr.begin("op", 0, 7)
	tr.end(id)
	tr.spans[id-1].Start, tr.spans[id-1].End = 1, 2 // a one-second parent

	kids := tr.children(id, []string{"x", "y", "z"}, []float64{0.25, 0.5, -1})
	if len(kids) != 3 || tr.clamped != 0 {
		t.Fatalf("kids=%v clamped=%d", kids, tr.clamped)
	}
	x, y, z := tr.spans[kids[0]-1], tr.spans[kids[1]-1], tr.spans[kids[2]-1]
	if x.Start != 1 || x.End != 1.25 || y.Start != 1.25 || y.End != 1.75 || z.dur() != 0 {
		t.Errorf("children not laid end to end from the parent's start: %+v %+v %+v", x, y, z)
	}
	if x.Op != 7 || !x.Synth || x.Parent != id {
		t.Errorf("child does not inherit op id / synth mark: %+v", x)
	}
	self := selfTimes(tr.spans)
	if math.Abs(self[id]-0.25) > 1e-12 {
		t.Errorf("parent self = %g, want the uncovered 0.25", self[id])
	}
	if e := partsError(tr.spans); e > 1e-12 {
		t.Errorf("parts error = %g, want 0", e)
	}

	// A program that reports more child time than the call took is clamped
	// to the parent and counted.
	id2 := tr.begin("op", 0, 8)
	tr.end(id2)
	tr.spans[id2-1].Start, tr.spans[id2-1].End = 5, 6
	kids = tr.children(id2, []string{"long"}, []float64{3})
	if got := tr.spans[kids[0]-1]; got.End != 6 || tr.clamped != 1 {
		t.Errorf("over-long child: %+v clamped=%d, want it cut at the parent's end", got, tr.clamped)
	}
	if e := partsError(tr.spans); e > 1e-12 {
		t.Errorf("parts error after clamping = %g, want 0", e)
	}
}
