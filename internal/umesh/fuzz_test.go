package umesh

import (
	"math"
	"slices"
	"testing"

	"repro/internal/physics"
)

// Native Go fuzz targets for the RCB partitioner, the mesh builders and the
// part operator's row store — the randomized base of the test pyramid. The seed corpus under
// testdata/fuzz/ is checked in and runs as part of every plain `go test`;
// `make fuzz-smoke` (and CI) additionally explores new inputs for a short
// -fuzztime.

// fuzzRand is a splitmix64 stream for deterministic random meshes.
type fuzzRand uint64

func (r *fuzzRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *fuzzRand) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// randomFuzzMesh builds an arbitrary-topology mesh from fuzzer-chosen sizes:
// random centroids in a box, random face pairs (duplicates and isolated
// cells allowed — the partitioner must cope with degenerate topology). A
// grid above 0 snaps every centroid coordinate onto grid levels per axis,
// so coordinates, and whole centroids, repeat and the id tie-break decides.
func randomFuzzMesh(seed uint64, cells, faces, grid int) *Mesh {
	rng := fuzzRand(seed)
	u := &Mesh{
		NumCells: cells,
		Volume:   make([]float64, cells),
		Elev:     make([]float64, cells),
		Centroid: make([][3]float64, cells),
	}
	for c := 0; c < cells; c++ {
		u.Volume[c] = 1 + rng.float()
		r := [3]float64{rng.float(), rng.float(), rng.float()}
		if grid > 0 {
			for k := range r {
				r[k] = math.Floor(r[k]*float64(grid)) / float64(grid)
			}
		}
		u.Centroid[c] = [3]float64{r[0] * 100, r[1] * 100, r[2] * 10}
		u.Elev[c] = u.Centroid[c][2]
	}
	for i := 0; i < faces; i++ {
		a := int(rng.next() % uint64(cells))
		b := int(rng.next() % uint64(cells))
		if a == b {
			continue
		}
		u.Faces = append(u.Faces, Face{A: a, B: b, Trans: 1e-14 * (1 + rng.float())})
	}
	u.buildAdjacency()
	return u
}

// assertOwnershipPartition checks that the part map is a true partition:
// every cell is owned exactly once, Part and Owned agree, and every part id
// is in range.
func assertOwnershipPartition(t *testing.T, u *Mesh, p *Partition) {
	t.Helper()
	if len(p.Part) != u.NumCells {
		t.Fatalf("part map covers %d cells, mesh has %d", len(p.Part), u.NumCells)
	}
	owner := make([]int, u.NumCells)
	for i := range owner {
		owner[i] = -1
	}
	total := 0
	for me, owned := range p.Owned {
		for _, c := range owned {
			if c < 0 || c >= u.NumCells {
				t.Fatalf("part %d owns out-of-range cell %d", me, c)
			}
			if owner[c] != -1 {
				t.Fatalf("cell %d owned by both part %d and part %d", c, owner[c], me)
			}
			owner[c] = me
			total++
		}
	}
	if total != u.NumCells {
		t.Fatalf("ownership covers %d cells, mesh has %d", total, u.NumCells)
	}
	for c, pp := range p.Part {
		if pp < 0 || pp >= p.NumParts {
			t.Fatalf("cell %d assigned to invalid part %d", c, pp)
		}
		if owner[c] != pp {
			t.Fatalf("cell %d: Part says %d, Owned says %d", c, pp, owner[c])
		}
	}
}

// assertHaloLists checks each part's halo list against the mesh: grouped by
// owning part with owners ascending and ids strictly ascending within a group
// (so no cell is listed twice), none of the part's own cells, every listed
// cell face-adjacent to the part, and every cut face's far cell listed — the
// exact §4 ghost layer, complete and nothing speculative.
func assertHaloLists(t *testing.T, u *Mesh, p *Partition) {
	t.Helper()
	if len(p.halo) != p.NumParts {
		t.Fatalf("%d halo lists for %d parts", len(p.halo), p.NumParts)
	}
	for me, halo := range p.halo {
		for i, c := range halo {
			src := p.Part[c]
			if src == me {
				t.Fatalf("part %d lists its own cell %d as halo", me, c)
			}
			if i > 0 {
				if prev := halo[i-1]; p.Part[prev] > src || p.Part[prev] == src && prev >= c {
					t.Fatalf("part %d: halo cell %d of part %d follows %d of part %d — not (owner, id) ascending",
						me, c, src, prev, p.Part[prev])
				}
			}
			nbrs, _ := u.halfFaces(int(c))
			if !slices.ContainsFunc(nbrs, func(nb int32) bool { return p.Part[nb] == me }) {
				t.Fatalf("halo cell %d (part %d→%d) is not face-adjacent to the receiver", c, src, me)
			}
		}
	}
	for _, f := range u.Faces {
		pa, pb := p.Part[f.A], p.Part[f.B]
		if pa != pb && (!slices.Contains(p.halo[pa], int32(f.B)) || !slices.Contains(p.halo[pb], int32(f.A))) {
			t.Fatalf("cross-part face (%d,%d) between parts %d/%d missing from the halo lists", f.A, f.B, pa, pb)
		}
	}
}

// assertSendsMatchBlocks checks a compiled layout's exchange against its
// receive side: every send src → dst reads owned cells of src and writes
// the same cells, in strictly ascending id order, into dst's halo
// (src.globalOf[idx[j]] == dst.globalOf[dstBase+j]); each part's sends
// ascend by destination, so there is one block per (src, dst) pair; and
// the blocks of a receiver cover its halo exactly once — inside it, never
// overlapping.
func assertSendsMatchBlocks(t *testing.T, l *Layout) {
	t.Helper()
	written := make([][]int, len(l.parts))
	for dst, ps := range l.parts {
		written[dst] = make([]int, ps.nHalo)
	}
	for src, ps := range l.parts {
		for si, sp := range ps.sends {
			if sp.dst == src || si > 0 && sp.dst <= ps.sends[si-1].dst {
				t.Fatalf("part %d: send %d goes to part %d after part %d — destinations must ascend, once each, never to itself",
					src, si, sp.dst, ps.sends[max(si-1, 0)].dst)
			}
			dst := l.parts[sp.dst]
			if sp.dstBase < dst.nOwned || sp.dstBase+len(sp.idx) > len(dst.globalOf) {
				t.Fatalf("%d→%d: block [%d, %d) outside the halo [%d, %d)",
					src, sp.dst, sp.dstBase, sp.dstBase+len(sp.idx), dst.nOwned, len(dst.globalOf))
			}
			for j, li := range sp.idx {
				at := sp.dstBase + j
				if int(li) >= ps.nOwned || ps.globalOf[li] != dst.globalOf[at] {
					t.Fatalf("%d→%d slot %d: sends local %d (owned %d), the receiver holds cell %d there",
						src, sp.dst, j, li, ps.nOwned, dst.globalOf[at])
				}
				if j > 0 && dst.globalOf[at] <= dst.globalOf[at-1] {
					t.Fatalf("%d→%d: cells %d then %d — not ascending", src, sp.dst, dst.globalOf[at-1], dst.globalOf[at])
				}
				written[sp.dst][at-dst.nOwned]++
			}
		}
	}
	for dst, w := range written {
		for i, n := range w {
			if n != 1 {
				t.Fatalf("part %d: halo slot %d written by %d sends, want exactly 1", dst, i, n)
			}
		}
	}
}

// FuzzPartition holds RCB to its structural invariants and, with
// CanonicalOrder, to the sort-per-level oracle (assertMatchesSortOracle).
func FuzzPartition(f *testing.F) {
	f.Add(uint64(1), uint64(40), uint64(80), uint64(2), uint64(0))
	f.Add(uint64(99), uint64(1), uint64(0), uint64(0), uint64(0))   // single isolated cell
	f.Add(uint64(7), uint64(16), uint64(200), uint64(4), uint64(0)) // dense multigraph
	f.Add(uint64(3), uint64(250), uint64(500), uint64(3), uint64(0))
	f.Fuzz(func(t *testing.T, seed, nCells, nFaces, nLevels, nGrid uint64) {
		cells := int(nCells%300) + 1
		faces := int(nFaces % 1200)
		levels := int(nLevels % (reductionDepth + 1)) // every depth RCB accepts
		if 1<<levels > cells {
			t.Skip("more parts than cells — rejected by construction")
		}
		u := randomFuzzMesh(seed, cells, faces, int(nGrid%8))
		if err := u.Validate(); err != nil {
			t.Fatalf("random mesh invalid: %v", err)
		}
		p, err := RCB(u, levels)
		if err != nil {
			t.Fatalf("RCB(%d cells, %d faces, %d levels): %v", cells, faces, levels, err)
		}
		if p.NumParts != 1<<levels {
			t.Fatalf("RCB produced %d parts, want %d", p.NumParts, 1<<levels)
		}
		assertOwnershipPartition(t, u, p)
		assertHaloLists(t, u, p)
		l, err := CompileLayout(u, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertSendsMatchBlocks(t, l)
		l.Close()
		assertMatchesSortOracle(t, u)
	})
}

// fuzzRadialOptions maps fuzzer-chosen integers onto in-range radial options
// and counts the cells they build. Refinement doubles the sector count every
// RefineEvery rings, so unconstrained inputs grow exponentially; callers bound
// the workload on the count before building (the builder itself has no size
// cap by design).
func fuzzRadialOptions(nRings, nSectors, nRefine uint64) (RadialOptions, int) {
	opts := RadialOptions{
		Rings:       int(nRings%24) + 2,
		BaseSectors: int(nSectors%30) + 3,
		RefineEvery: int(nRefine % 6),
		R0:          1, DR: 2, Dz: 2, PermMD: 100,
	}
	cells, sectors := 0, opts.BaseSectors
	for i := 0; i < opts.Rings; i++ {
		if i > 0 && opts.RefineEvery > 0 && i%opts.RefineEvery == 0 {
			sectors *= 2
		}
		cells += sectors
	}
	return opts, cells
}

func FuzzRadialMesh(f *testing.F) {
	f.Add(uint64(8), uint64(8), uint64(3))
	f.Add(uint64(2), uint64(3), uint64(0))   // minimum geometry, no refinement
	f.Add(uint64(10), uint64(29), uint64(1)) // refine every ring
	f.Fuzz(func(t *testing.T, nRings, nSectors, nRefine uint64) {
		opts, cells := fuzzRadialOptions(nRings, nSectors, nRefine)
		if cells > 20000 {
			t.Skip("geometry too large for a fuzz iteration")
		}
		u, err := NewRadialMesh(opts)
		if err != nil {
			t.Fatalf("in-range radial options rejected: %+v: %v", opts, err)
		}
		if err := u.Validate(); err != nil {
			t.Fatalf("built mesh invalid: %v", err)
		}
		// Structural invariants: adjacency degree sum is twice the face
		// count, every volume is positive, and the within-ring topology
		// guarantees every cell has at least two neighbors.
		degSum := 0
		for c := 0; c < u.NumCells; c++ {
			if u.Volume[c] <= 0 {
				t.Fatalf("cell %d has non-positive volume %g", c, u.Volume[c])
			}
			if u.Degree(c) < 2 {
				t.Fatalf("cell %d has degree %d, want ≥2 (periodic rings)", c, u.Degree(c))
			}
			degSum += u.Degree(c)
		}
		if degSum != 2*len(u.Faces) {
			t.Fatalf("adjacency degree sum %d != 2×faces %d", degSum, 2*len(u.Faces))
		}
		// The builder's output must be partitionable with valid halo lists.
		p, err := RCB(u, 1)
		if err != nil {
			t.Fatalf("RCB on built mesh: %v", err)
		}
		assertOwnershipPartition(t, u, p)
		assertHaloLists(t, u, p)
	})
}

// FuzzRowStore builds the part-resident operator over FuzzRadialMesh's corpus
// shape at a fuzzer-chosen part count and holds its row store to the
// structural invariants (assertRowStore) and its sweep — plain and with the
// inner product fused — to the oracle, bit for bit.
func FuzzRowStore(f *testing.F) {
	f.Add(uint64(8), uint64(8), uint64(3), uint64(2))
	f.Add(uint64(2), uint64(3), uint64(0), uint64(0))   // minimum geometry: no degree-4 row at all
	f.Add(uint64(10), uint64(29), uint64(1), uint64(3)) // refine every ring: degree-5 rows throughout
	f.Fuzz(func(t *testing.T, nRings, nSectors, nRefine, nLevels uint64) {
		opts, cells := fuzzRadialOptions(nRings, nSectors, nRefine)
		levels := int(nLevels % 4)
		if cells > 20000 || 1<<levels > cells {
			t.Skip("geometry too large for a fuzz iteration, or more parts than cells")
		}
		u, err := NewRadialMesh(opts)
		if err != nil {
			t.Fatalf("in-range radial options rejected: %+v: %v", opts, err)
		}
		sys, err := NewUSystem(u, physics.DefaultFluid(), 3600, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertSweepMatchesOracle(t, sys, levels, 2, probeVector(cells, int(nRings%97)), true)
	})
}
