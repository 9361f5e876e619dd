package dsd

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// NewMemory allocates a PE memory of capacity words. The WSE-2's 48 KiB per
// PE corresponds to 12288 words.
func NewMemory(capacityWords int) (*Memory, error) {
	mems, err := NewArena(1, capacityWords)
	if err != nil {
		return nil, err
	}
	return &mems[0], nil
}

func newMem(t *testing.T, words int) *Memory {
	t.Helper()
	m, err := NewMemory(words)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMemoryRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewMemory(n); err == nil {
			t.Errorf("NewMemory(%d) accepted", n)
		}
	}
}

func TestAllocSequential(t *testing.T) {
	m := newMem(t, 100)
	a, err := m.Alloc(30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(30)
	if err != nil {
		t.Fatal(err)
	}
	if a.Base == b.Base {
		t.Error("allocations overlap")
	}
	if a.Len != 30 {
		t.Errorf("bad descriptor %+v", a)
	}
	if _, err := m.Alloc(50); err == nil {
		t.Error("over-allocation accepted")
	}
	if _, err := m.Alloc(0); err == nil {
		t.Error("zero allocation accepted")
	}
}

func TestDescSlice(t *testing.T) {
	d := Desc{Base: 10, Len: 20}
	s, err := d.Slice(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Base != 15 || s.Len != 10 {
		t.Errorf("bad slice %+v", s)
	}
	if _, err := d.Slice(15, 10); err == nil {
		t.Error("out-of-range slice accepted")
	}
	if _, err := d.Slice(-1, 5); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestDescShiftAndAt(t *testing.T) {
	d := Desc{Base: 8, Len: 4}
	if d.At(2) != 10 {
		t.Errorf("At(2) = %d, want 10", d.At(2))
	}
	s := d.Shift(1)
	if s.Base != 9 || s.Len != 4 {
		t.Errorf("bad shift %+v", s)
	}
	n := d.Shift(-1)
	if n.Base != 7 {
		t.Errorf("negative shift base = %d, want 7", n.Base)
	}
}

func TestMustSlicePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("MustSlice out of range did not panic")
		}
	}()
	Desc{Base: 0, Len: 3}.MustSlice(2, 5)
}

func TestWriteReadAll(t *testing.T) {
	m := newMem(t, 32)
	d, _ := m.Alloc(4)
	if err := m.WriteAll(d, []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got := m.HostView(d)
	for i, want := range []float32{1, 2, 3, 4} {
		if got[i] != want {
			t.Fatalf("readback[%d] = %g, want %g", i, got[i], want)
		}
	}
	if err := m.WriteAll(d, []float32{1}); err == nil {
		t.Error("length-mismatched WriteAll accepted")
	}
}

// TestReadInto reads a column back into a host buffer: element-wise host
// stores land where the column view reads them, and a copy taken from the
// view is a snapshot that later stores do not reach.
func TestReadInto(t *testing.T) {
	m := newMem(t, 64)
	blk, err := m.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		m.StoreHost(blk, i, float32(i))
	}
	dst := make([]float32, 16)
	if n := copy(dst, m.HostView(blk)); n != 16 {
		t.Fatalf("copied %d words from a 16-word column", n)
	}
	for i, v := range dst {
		if v != float32(i) {
			t.Fatalf("readback of StoreHost[%d] = %g", i, v)
		}
	}
	m.StoreHost(blk, 0, 99)
	if dst[0] != 0 {
		t.Errorf("host copy changed to %g after a later store", dst[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("HostView of a column past the end of memory did not panic")
		}
	}()
	m.HostView(Desc{Base: blk.Base, Len: len(m.words) - blk.Base + 1})
}

func TestBoundsCheckPanics(t *testing.T) {
	m := newMem(t, 16)
	e := NewEngine(m)
	bad := Desc{Base: 10, Len: 10}
	ok := Desc{Base: 0, Len: 10}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-bounds op did not panic")
		}
		if !strings.Contains(r.(string), "out of memory bounds") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	e.MulVV(ok, ok, bad)
}

func TestLengthMismatchPanics(t *testing.T) {
	m := newMem(t, 32)
	e := NewEngine(m)
	a, _ := m.Alloc(4)
	b, _ := m.Alloc(8)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	e.AddVV(a, a, b)
}

func TestAllocReuseRoundTripProperty(t *testing.T) {
	// Allocations of assorted sizes are fresh zero words and never overlap:
	// writing each block leaves every other block as it was written.
	f := func(sizes []uint8) bool {
		m, _ := NewMemory(4096)
		type block struct {
			d   Desc
			val float32
		}
		var live []block
		for i, s := range sizes {
			n := int(s)%32 + 1
			d, err := m.Alloc(n)
			if err != nil {
				return true // out of memory is fine
			}
			v := float32(i + 1)
			for j := 0; j < d.Len; j++ {
				if m.Load(d, j) != 0 {
					return false
				}
				m.StoreHost(d, j, v)
			}
			live = append(live, block{d, v})
		}
		for _, b := range live {
			for j := 0; j < b.d.Len; j++ {
				if m.Load(b.d, j) != b.val {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// WriteAll copies src into descriptor d (a host load; the engines write
// through HostView). Lengths must match.
func (m *Memory) WriteAll(d Desc, src []float32) error {
	if len(src) != d.Len {
		return fmt.Errorf("dsd: WriteAll length %d != descriptor length %d", len(src), d.Len)
	}
	copy(m.col(d), src)
	return nil
}
