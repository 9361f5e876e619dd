package dsd

import (
	"math"
	"testing"
)

// MemBytes returns the counted local-memory traffic in bytes.
func (c *Counters) MemBytes() uint64 { return 4 * (c.Loads + c.Stores) }

// opFixture allocates three 8-element vectors with known contents.
func opFixture(t *testing.T) (*Engine, Desc, Desc, Desc) {
	t.Helper()
	m := newMem(t, 256)
	e := NewEngine(m)
	a, _ := m.Alloc(8)
	b, _ := m.Alloc(8)
	dst, _ := m.Alloc(8)
	for i := 0; i < 8; i++ {
		m.StoreHost(a, i, float32(i+1))      // 1..8
		m.StoreHost(b, i, float32(10*(i+1))) // 10..80
	}
	return e, dst, a, b
}

func TestMulVV(t *testing.T) {
	e, dst, a, b := opFixture(t)
	e.MulVV(dst, a, b)
	for i := 0; i < 8; i++ {
		want := float32(i+1) * float32(10*(i+1))
		if got := e.Mem.Load(dst, i); got != want {
			t.Fatalf("dst[%d] = %g, want %g", i, got, want)
		}
	}
	if c := e.Counters(); c.FMUL != 8 || c.Loads != 16 || c.Stores != 8 {
		t.Errorf("counters FMUL=%d Loads=%d Stores=%d, want 8/16/8", c.FMUL, c.Loads, c.Stores)
	}
}

func TestMulVS(t *testing.T) {
	e, dst, a, _ := opFixture(t)
	e.MulVS(dst, a, 0.5)
	for i := 0; i < 8; i++ {
		if got := e.Mem.Load(dst, i); got != float32(i+1)*0.5 {
			t.Fatalf("dst[%d] = %g", i, got)
		}
	}
	// Scalar operand still counts two loads per element (Table 4 convention).
	if c := e.Counters(); c.FMUL != 8 || c.Loads != 16 {
		t.Errorf("FMUL=%d Loads=%d, want 8/16", c.FMUL, c.Loads)
	}
}

func TestAddSubNeg(t *testing.T) {
	e, dst, a, b := opFixture(t)
	e.AddVV(dst, a, b)
	if e.Mem.Load(dst, 2) != 33 {
		t.Errorf("add wrong: %g", e.Mem.Load(dst, 2))
	}
	e.SubVV(dst, b, a)
	if e.Mem.Load(dst, 2) != 27 {
		t.Errorf("sub wrong: %g", e.Mem.Load(dst, 2))
	}
	e.SubVS(dst, a, 1)
	if e.Mem.Load(dst, 2) != 2 {
		t.Errorf("subs wrong: %g", e.Mem.Load(dst, 2))
	}
	e.NegV(dst, a)
	if e.Mem.Load(dst, 2) != -3 {
		t.Errorf("neg wrong: %g", e.Mem.Load(dst, 2))
	}
	c := e.Counters()
	if c.FADD != 8 || c.FSUB != 16 || c.FNEG != 8 {
		t.Errorf("counters FADD=%d FSUB=%d FNEG=%d", c.FADD, c.FSUB, c.FNEG)
	}
	// NEG is 1 load + 1 store.
	wantLoads := uint64(16 + 16 + 16 + 8)
	if c.Loads != wantLoads {
		t.Errorf("Loads = %d, want %d", c.Loads, wantLoads)
	}
}

func TestFmaVSS(t *testing.T) {
	e, dst, a, _ := opFixture(t)
	e.FmaVSS(dst, a, 2, 5)
	for i := 0; i < 8; i++ {
		if got := e.Mem.Load(dst, i); got != 2*float32(i+1)+5 {
			t.Fatalf("dst[%d] = %g", i, got)
		}
	}
	c := e.Counters()
	if c.FMA != 8 || c.Loads != 24 || c.Stores != 8 {
		t.Errorf("FMA=%d Loads=%d Stores=%d, want 8/24/8", c.FMA, c.Loads, c.Stores)
	}
	if c.Flops() != 16 {
		t.Errorf("Flops = %d, want 16 (FMA counts 2)", c.Flops())
	}
}

func TestFmaVVV(t *testing.T) {
	e, dst, a, b := opFixture(t)
	c := dst // reuse dst as addend: dst = a*b + dst with dst zeroed
	e.FmaVVV(dst, a, b, c)
	if e.Mem.Load(dst, 1) != 2*20 {
		t.Errorf("fma wrong: %g", e.Mem.Load(dst, 1))
	}
}

func TestFmaRoundsProductBeforeAdd(t *testing.T) {
	// x² = 1 + 2⁻¹² + 2⁻²⁶ needs more than float32's 24 bits: rounded on its
	// own it is 1 + 2⁻¹², and adding −(1 + 2⁻¹²) gives exactly 0, while a
	// fused multiply-add keeps the 2⁻²⁶ tail. The ops are specified as two
	// roundings, on every architecture.
	const x = 1 + 1.0/(1<<13)
	const addend = -(1 + 1.0/(1<<12))
	if fused := float32(math.FMA(x, x, addend)); fused == 0 {
		t.Fatal("test input does not distinguish fused from separately rounded")
	}
	m := newMem(t, 64)
	e := NewEngine(m)
	a, _ := m.Alloc(4)
	c, _ := m.Alloc(4)
	dst, _ := m.Alloc(4)
	for i := 0; i < 4; i++ {
		m.StoreHost(a, i, x)
		m.StoreHost(c, i, addend)
	}
	e.FmaVSS(dst, a, x, addend)
	vss := append([]float32(nil), m.HostView(dst)...)
	e.FmaVVV(dst, a, a, c)
	vvv := m.HostView(dst)
	for i := 0; i < 4; i++ {
		if vss[i] != 0 || vvv[i] != 0 {
			t.Errorf("element %d: FmaVSS = %g, FmaVVV = %g, want 0 (product rounded before the add)",
				i, vss[i], vvv[i])
		}
	}
}

func TestSelGtV(t *testing.T) {
	e, dst, a, b := opFixture(t)
	m := e.Mem
	cond, _ := m.Alloc(8)
	for i := 0; i < 8; i++ {
		v := float32(1)
		if i%2 == 0 {
			v = -1
		}
		m.StoreHost(cond, i, v)
	}
	e.SelGtV(dst, cond, a, b)
	for i := 0; i < 8; i++ {
		want := float32(10 * (i + 1)) // b when cond <= 0
		if i%2 == 1 {
			want = float32(i + 1) // a when cond > 0
		}
		if got := m.Load(dst, i); got != want {
			t.Fatalf("sel[%d] = %g, want %g", i, got, want)
		}
	}
	// Predicated moves live in the uncounted class.
	ec := e.Counters()
	if ec.SELGT != 8 || ec.Loads != 0 || ec.Flops() != 0 {
		t.Errorf("SELGT=%d Loads=%d Flops=%d", ec.SELGT, ec.Loads, ec.Flops())
	}
	if ec.UncountedLoads != 24 || ec.UncountedStores != 8 {
		t.Errorf("uncounted traffic %d/%d, want 24/8", ec.UncountedLoads, ec.UncountedStores)
	}
}

func TestSelGtVZeroCondTakesElse(t *testing.T) {
	// ΔΦ = 0 must select the L-side density ("otherwise" branch of Eq. 4).
	e, dst, a, b := opFixture(t)
	cond, _ := e.Mem.Alloc(8)
	e.SelGtV(dst, cond, a, b)
	if e.Mem.Load(dst, 0) != 10 {
		t.Errorf("cond=0 selected the greater branch")
	}
}

func TestAccVAndFill(t *testing.T) {
	e, dst, a, _ := opFixture(t)
	e.Fill(dst, 100)
	e.AccV(dst, a)
	if e.Mem.Load(dst, 3) != 104 {
		t.Errorf("acc wrong: %g", e.Mem.Load(dst, 3))
	}
	c := e.Counters()
	if c.ACC != 8 || c.FILL != 8 {
		t.Errorf("ACC=%d FILL=%d", c.ACC, c.FILL)
	}
	if c.Flops() != 0 || c.Loads != 0 {
		t.Error("uncounted ops leaked into counted counters")
	}
}

func TestMovRecv(t *testing.T) {
	e, dst, _, _ := opFixture(t)
	src := []float32{9, 8, 7, 6, 5, 4, 3, 2}
	e.MovRecv(dst, src)
	for i, want := range src {
		if got := e.Mem.Load(dst, i); got != want {
			t.Fatalf("recv[%d] = %g, want %g", i, got, want)
		}
	}
	c := e.Counters()
	if c.FMOV != 8 || c.FabricLoads != 8 || c.Stores != 8 {
		t.Errorf("FMOV=%d FabricLoads=%d Stores=%d", c.FMOV, c.FabricLoads, c.Stores)
	}
}

func TestMovRecvLengthMismatchPanics(t *testing.T) {
	e, dst, _, _ := opFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MovRecv length mismatch did not panic")
		}
	}()
	e.MovRecv(dst, []float32{1})
}

func TestInPlaceOps(t *testing.T) {
	// The kernel reuses buffers in place (§5.3.1); aliasing dst with a source
	// must be well-defined for elementwise ops.
	m := newMem(t, 64)
	e := NewEngine(m)
	a, _ := m.Alloc(4)
	m.WriteAll(a, []float32{1, 2, 3, 4})
	e.MulVS(a, a, 2) // a *= 2
	if m.Load(a, 3) != 8 {
		t.Errorf("in-place mul wrong: %g", m.Load(a, 3))
	}
	e.NegV(a, a)
	if m.Load(a, 0) != -2 {
		t.Errorf("in-place neg wrong: %g", m.Load(a, 0))
	}
}

func TestShiftedDescriptorOps(t *testing.T) {
	// Vertical-face pattern: dst[i] = col[i+1] − col[i] over a padded column.
	m := newMem(t, 64)
	e := NewEngine(m)
	col, _ := m.Alloc(10)
	for i := 0; i < 10; i++ {
		m.StoreHost(col, i, float32(i*i))
	}
	body := col.MustSlice(1, 8)
	up := body.Shift(1)
	dst, _ := m.Alloc(8)
	e.SubVV(dst, up, body)
	for i := 0; i < 8; i++ {
		z := i + 1
		want := float32((z+1)*(z+1) - z*z)
		if got := m.Load(dst, i); got != want {
			t.Fatalf("dst[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{FMUL: 1, FADD: 2, FSUB: 3, FNEG: 4, FMA: 5, FMOV: 6,
		SELGT: 7, ACC: 8, FILL: 9,
		Loads: 11, Stores: 12, FabricLoads: 13, UncountedLoads: 14, UncountedStores: 15}
	b := a
	a.Add(&b)
	if a.FMUL != 2 || a.FMA != 10 || a.FabricLoads != 26 || a.UncountedStores != 30 {
		t.Errorf("Add wrong: %+v", a)
	}
	if a.Flops() != 2*(1+2+3+4+2*5) {
		t.Errorf("Flops = %d", a.Flops())
	}
	if a.MemBytes() != 4*(22+24) {
		t.Errorf("MemBytes = %d", a.MemBytes())
	}
	if a.MemAccesses() != 46 {
		t.Errorf("MemAccesses = %d", a.MemAccesses())
	}
}

func TestKernelOpSequenceCounters(t *testing.T) {
	// Execute the §5.3.3 per-face sequence once over an 8-cell column
	// and verify it produces exactly the Table 4 per-face mix.
	m := newMem(t, 1024)
	e := NewEngine(m)
	alloc := func() Desc { d, _ := m.Alloc(8); return d }
	pK, pL, gzK, gzL, tr := alloc(), alloc(), alloc(), alloc(), alloc()
	dp, dgz, rK, rL, s := alloc(), alloc(), alloc(), alloc(), alloc()
	gt, dPhi, rup, lam, f := alloc(), alloc(), alloc(), alloc(), alloc()
	res := alloc()
	for i := 0; i < 8; i++ {
		m.StoreHost(pK, i, 1.9e7)
		m.StoreHost(pL, i, 2.0e7)
		m.StoreHost(gzK, i, -14700)
		m.StoreHost(gzL, i, -14800)
		m.StoreHost(tr, i, 1e-12)
	}
	const aHat, cHat, invMu = 7e-6, 595, 16666.0
	e.SubVV(dp, pL, pK)
	e.SubVV(dgz, gzL, gzK)
	e.MulVS(rK, pK, aHat)
	e.MulVS(rL, pL, aHat)
	e.AddVV(s, rK, rL)
	e.FmaVSS(s, s, 0.5, cHat) // ρavg in place
	e.MulVV(gt, s, dgz)
	e.NegV(gt, gt)
	e.SubVV(dPhi, dp, gt)
	e.SelGtV(rup, dPhi, rK, rL)
	e.SubVS(rup, rup, -cHat)
	e.MulVS(lam, rup, invMu)
	e.MulVV(f, tr, dPhi)
	e.MulVV(f, f, lam)
	e.AccV(res, f)

	ec := e.Counters()
	perFace := func(c uint64) uint64 { return c / 8 }
	if perFace(ec.FMUL) != 6 || perFace(ec.FSUB) != 4 || perFace(ec.FADD) != 1 ||
		perFace(ec.FMA) != 1 || perFace(ec.FNEG) != 1 {
		t.Errorf("per-face mix FMUL=%d FSUB=%d FADD=%d FMA=%d FNEG=%d, want 6/4/1/1/1",
			perFace(ec.FMUL), perFace(ec.FSUB), perFace(ec.FADD), perFace(ec.FMA), perFace(ec.FNEG))
	}
	if got := ec.Flops() / 8; got != 14 {
		t.Errorf("FLOPs per face = %d, want 14", got)
	}
	// 39 counted memory accesses per face (Table 4: 390/cell + 16 FMOV).
	if got := ec.MemAccesses() / 8; got != 39 {
		t.Errorf("memory accesses per face = %d, want 39", got)
	}
}

// opSequence drives every vector op once over the given descriptors.
func opSequence(e *Engine, dst, a, b, c Desc) {
	e.MulVV(dst, a, b)
	e.MulVS(dst, dst, 1.5)
	e.AddVV(dst, dst, c)
	e.SubVV(dst, dst, a)
	e.SubVS(dst, dst, 0.25)
	e.NegV(dst, dst)
	e.FmaVSS(dst, dst, 2, -1)
	e.FmaVVV(dst, a, b, dst)
	e.SelGtV(dst, c, a, b)
	e.AccV(dst, a)
	e.Fill(c, 3)
	e.MovRecv(dst, []float32{9, 8, 7, 6, 5, 4, 3, 2}[:dst.Len])
}

func fixtureEngine(t *testing.T) (*Engine, Desc, Desc, Desc, Desc) {
	t.Helper()
	m := newMem(t, 256)
	e := NewEngine(m)
	alloc := func(n int) Desc {
		d, err := m.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, c, dst := alloc(8), alloc(8), alloc(8), alloc(8)
	for i := 0; i < 8; i++ {
		m.StoreHost(a, i, float32(i)-3.5)
		m.StoreHost(b, i, float32(i*i)*0.75)
		m.StoreHost(c, i, float32(5-i))
	}
	return e, dst, a, b, c
}

func TestCountersFoldMatchesManualAccounting(t *testing.T) {
	// Spot-check the deferred tally fold against the documented per-op
	// accounting on a mixed sequence.
	e, dst, a, b, c := fixtureEngine(t)
	opSequence(e, dst, a, b, c)
	got := e.Counters()

	// opSequence: 1 MulVV + 1 MulVS (FMUL), 1 AddVV, 2 FSUB, 1 FNEG, 2 FMA,
	// 1 SELGT, 1 ACC, 1 FILL, 1 FMOV — 8 elements each.
	want := Counters{
		FMUL: 16, FADD: 8, FSUB: 16, FNEG: 8, FMA: 16, FMOV: 8,
		SELGT: 8, ACC: 8, FILL: 8,
		Loads:           2*16 + 2*8 + 2*16 + 8 + 3*16,
		Stores:          16 + 8 + 16 + 8 + 16 + 8,
		FabricLoads:     8,
		UncountedLoads:  3*8 + 2*8,
		UncountedStores: 8 + 8 + 8,
		Issues:          12,
	}
	if got != want {
		t.Fatalf("folded counters:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestEmptyDescriptorsIssueOnce: an op over empty descriptors is one issue
// of nothing wherever they point — no bounds panic, no element counted
// (FluxFace books its 14 issues, a one-face cell off the wire its Fill,
// two MovRecvs, 14 and an AccV).
func TestEmptyDescriptorsIssueOnce(t *testing.T) {
	e := NewEngine(newMem(t, 8))
	z := Desc{Base: 1 << 20, Len: 0}
	opSequence(e, z, z, Desc{Base: -3}, z)
	e.FluxFace(z, z, z, z, z, z, testConsts)
	e.fluxCell(z, z, z, []Face{{Tr: z, PL: Desc{Base: 4}, GzL: z, WireP: []float32{}, WireGz: []float32{}}}, testConsts)
	if c := e.Counters(); c != (Counters{Issues: 12 + 14 + 18}) {
		t.Fatalf("counters %+v, want only %d issues", c, 12+14+18)
	}
}
