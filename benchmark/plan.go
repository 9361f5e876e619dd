package main

import (
	"encoding/json"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/serve"
	"repro/massivefv"
)

// serveWell is the request's well type, which the facade does not re-export.
type serveWell = serve.WellSpec

// Every generated input comes from the seed through a PCG stream of its own,
// so the program under test receives only generated inputs and the same seed
// gives byte-identical ones. The stream constants only keep the generators
// apart.
const (
	streamUsolve uint64 = 0x75736f6c7665 // "usolve"
	streamServe  uint64 = 0x7365727665   // "serve"
)

// radialCells replicates the radial builder's sector progression: the cell
// count and the first cell of the outermost ring (cells are ring-major).
func radialCells(rings, sectors, refineEvery int) (cells, outerStart int) {
	for i := 0; i < rings; i++ {
		if i > 0 && refineEvery > 0 && i%refineEvery == 0 {
			sectors *= 2
		}
		outerStart = cells
		cells += sectors
	}
	return cells, outerStart
}

// drawWells draws a balanced well pair: the injector at the well cell (0,
// UMesh.WellIndex) and a producer somewhere on the outermost ring, at a rate
// in [1, 3) kg/s.
func drawWells(rng *rand.Rand, cells, outerStart int) (producer int, rate float64) {
	return outerStart + rng.IntN(cells-outerStart), 1 + 2*rng.Float64()
}

// usolveRequest is the request both usolve workloads solve on every op: drawn
// once from the seed and held for the run.
func usolveRequest(seed uint64, sz sizes) massivefv.UTransientOptions {
	rng := rand.New(rand.NewPCG(seed, streamUsolve))
	cells, outer := radialCells(sz.rings, sz.sectors, sz.refineEvery)
	producer, rate := drawWells(rng, cells, outer)
	return massivefv.UTransientOptions{
		Steps: sz.usolveSteps,
		Wells: []massivefv.UWell{{Cell: 0, Rate: rate}, {Cell: producer, Rate: -rate}},
	}
}

// reqClass is the kind of a served request.
type reqClass int

const (
	classHot    reqClass = iota // a payload of the primed hot set: a memo hit
	classUnique                 // unique wells, 1 step: an engine solve
	classLong                   // unique wells, 3 steps: a long engine solve
)

// plannedRequest is one generated request, body rendered.
type plannedRequest struct {
	Class reqClass
	// Hot is the index into the hot set (classHot only).
	Hot  int
	Req  massivefv.ServeRequest
	Body []byte
	// Work is cells × steps: the cell updates a 200 delivers.
	Work int
	// Due is the send time after the open loop's start (open loop only).
	Due time.Duration
}

// servePlan is the whole traffic of one serve-mixed run.
type servePlan struct {
	// Cold is one default-wells request per scenario: what a set-up sends to
	// compile the scenario's engines.
	Cold []plannedRequest
	// Hot is the hot set, primed once and then only ever hit.
	Hot []plannedRequest
	// Closed are the closed loop's unique-payload misses, in order: warm-up
	// first; a traced run consumes two per iteration.
	Closed []plannedRequest
	// Open is the open loop in due order.
	Open []plannedRequest
	// OpenSeconds is the open loop's planned length.
	OpenSeconds float64
}

const (
	hotSetSize      = 8
	hitsPerIter     = 3
	longSteps       = 3
	openHotShare    = 0.40
	openLongShare   = 0.15
	openLimit       = 500 * time.Millisecond // latency limit from due time
	openSenders     = 2                      // persistent connections (capped by nproc)
	oracleSampleMod = 10                     // every 10th 200 is re-solved by serve.OneShot
)

// planner draws well payloads that are unique across the whole plan.
type planner struct {
	rng  *rand.Rand
	used map[payload]bool
}

// payload is what makes a request's memo key within one scenario and step
// count; cells differ between scenarios' meshes only by range.
type payload struct {
	producer int
	rate     float64
}

type scenarioSpec struct {
	scenario     massivefv.ServeScenario
	cells, outer int
}

func (p *planner) request(class reqClass, sc scenarioSpec, steps int) plannedRequest {
	for {
		producer, rate := drawWells(p.rng, sc.cells, sc.outer)
		key := payload{producer, rate}
		if p.used[key] {
			continue // payloads must be unique, or a "miss" would be a memo hit
		}
		p.used[key] = true
		return render(plannedRequest{
			Class: class,
			Req: massivefv.ServeRequest{
				Scenario: sc.scenario,
				Steps:    steps,
				Wells:    []serveWell{{Cell: 0, Rate: rate}, {Cell: producer, Rate: -rate}},
			},
			Work: sc.cells * steps,
		})
	}
}

func render(pr plannedRequest) plannedRequest {
	body, err := json.Marshal(pr.Req)
	if err != nil {
		panic(err) // a struct of ints, floats and strings always marshals
	}
	pr.Body = body
	return pr
}

// serveScenarios returns scenario A (the default mesh at parts 2 under AMG at
// tol 1e-6 — the production-like solve) and B (a 1 536-cell mesh under
// Jacobi — cheap solves that share the server).
func serveScenarios(sz sizes) (a, b scenarioSpec) {
	a.scenario = massivefv.ServeScenario{
		Rings: sz.rings, Sectors: sz.sectors, RefineEvery: sz.refineEvery,
		Parts: 2, Precond: string(massivefv.PrecondAMG), Tol: 1e-6,
	}
	a.cells, a.outer = radialCells(sz.rings, sz.sectors, sz.refineEvery)
	bRings, bSectors, bRefine := sz.rings/2, sz.sectors/2, sz.refineEvery
	b.scenario = massivefv.ServeScenario{
		Rings: bRings, Sectors: bSectors, RefineEvery: bRefine,
		Precond: string(massivefv.PrecondJacobi),
	}
	b.cells, b.outer = radialCells(bRings, bSectors, bRefine)
	return a, b
}

// newServePlan generates the run's traffic. closedN is the closed loop's miss
// count (warm-up included). The open loop is a Poisson process conditioned on
// its count: openN sorted uniform due times over openN/openRate seconds, with
// fixed class counts in shuffled order — so every seed offers the same work
// and only its arrangement differs.
func newServePlan(seed uint64, sz sizes, closedN int) *servePlan {
	p := &planner{rng: rand.New(rand.NewPCG(seed, streamServe)), used: make(map[payload]bool)}
	a, b := serveScenarios(sz)
	plan := &servePlan{OpenSeconds: float64(sz.openN) / sz.openRate}

	for _, sc := range []scenarioSpec{a, b} {
		plan.Cold = append(plan.Cold, render(plannedRequest{
			Class: classUnique,
			Req:   massivefv.ServeRequest{Scenario: sc.scenario},
			Work:  sc.cells,
		}))
	}
	for i := 0; i < hotSetSize; i++ {
		sc := a
		if i%2 == 1 {
			sc = b
		}
		hot := p.request(classHot, sc, 1)
		hot.Hot = i
		plan.Hot = append(plan.Hot, hot)
	}
	for i := 0; i < closedN; i++ {
		plan.Closed = append(plan.Closed, p.request(classUnique, a, 1))
	}

	nHot := int(openHotShare*float64(sz.openN) + 0.5)
	nLong := int(openLongShare*float64(sz.openN) + 0.5)
	for i := 0; i < sz.openN; i++ {
		switch {
		case i < nHot:
			plan.Open = append(plan.Open, plan.Hot[i%hotSetSize])
		case i < nHot+nLong:
			plan.Open = append(plan.Open, p.request(classLong, a, longSteps))
		case (i-nHot-nLong)%3 == 2:
			plan.Open = append(plan.Open, p.request(classUnique, b, 1))
		default:
			plan.Open = append(plan.Open, p.request(classUnique, a, 1))
		}
	}
	p.rng.Shuffle(len(plan.Open), func(i, j int) { plan.Open[i], plan.Open[j] = plan.Open[j], plan.Open[i] })
	dues := make([]float64, sz.openN)
	for i := range dues {
		dues[i] = p.rng.Float64() * plan.OpenSeconds
	}
	sort.Float64s(dues)
	for i := range plan.Open {
		plan.Open[i].Due = time.Duration(dues[i] * float64(time.Second))
	}
	return plan
}
