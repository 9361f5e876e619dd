package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans are opened in the benchmark's own files
// around each call into the massivefv facade; their children are synthesised
// from what the public results expose (Result.Elapsed, TransientResult.Phase,
// response timings). Spans inside the program are a later issue.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // operation (request) id shared by one op's spans; -1 outside ops
	Name   string `json:"name"`
	// Start and End are seconds since the tracer was created.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Synth marks a child whose duration the program reported and whose
	// position inside the parent is nominal (laid end to end from the
	// parent's start).
	Synth bool `json:"synth,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory and writes them out at exit. A nil tracer
// records nothing, so untraced runs share the call sites.
type tracer struct {
	t0 time.Time
	// mu guards spans and clamped: the open loop's senders trace at once.
	mu    sync.Mutex
	spans []span
	// clamped counts synthesised children that had to be shortened to fit
	// their parent — the program reported more child time than the call took.
	clamped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.now(), End: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
}

// children lays reported durations end to end inside a closed parent span,
// from its start, and returns the new spans' ids. What the children do not
// cover stays the parent's self time, so parts sum to the whole; a child that
// would run past the parent's end is clamped and counted.
func (t *tracer) children(parent int, names []string, durs []float64) []int {
	if t == nil || parent == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	at := p.Start
	ids := make([]int, len(names))
	for i, name := range names {
		d := durs[i]
		if d < 0 {
			d = 0
		}
		if at+d > p.End {
			d = p.End - at
			t.clamped++
		}
		id := len(t.spans) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: p.Op, Name: name, Start: at, End: at + d, Synth: true})
		ids[i] = id
		at += d
	}
	return ids
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its direct children cover (overlapping children count once).
func selfTimes(spans []span) map[int]float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := 0.0, s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// partsError returns the largest relative gap, over spans that have children,
// between a span's duration and its children's durations plus its self time.
// It is 0 when every child lies inside its parent and no two overlap.
func partsError(spans []span) float64 {
	self := selfTimes(spans)
	childSum := make(map[int]float64)
	for _, s := range spans {
		childSum[s.Parent] += s.dur()
	}
	worst := 0.0
	for _, s := range spans {
		cs, has := childSum[s.ID]
		if !has || s.dur() <= 0 {
			continue
		}
		gap := (cs + self[s.ID] - s.dur()) / s.dur()
		if gap < 0 {
			gap = -gap
		}
		if gap > worst {
			worst = gap
		}
	}
	return worst
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// write stores the spans as JSON, creating the directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"seconds since tracer start", t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
