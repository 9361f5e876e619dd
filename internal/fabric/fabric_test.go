package fabric

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dsd"
)

func newFabric(t *testing.T, w, h int) *Fabric {
	t.Helper()
	f, err := New(Config{Width: w, Height: h, RecvTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 3},
		{Width: 3, Height: -1},
		{Width: 2, Height: 2, LinkBuffer: -4},
		{Width: 2, Height: 2, MemWords: -1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestTopologyWiring(t *testing.T) {
	f := newFabric(t, 3, 2)
	// Corner (0,0): east and south neighbors only.
	pe := f.PE(0, 0)
	if pe.HasNeighbor(PortWest) || pe.HasNeighbor(PortNorth) {
		t.Error("corner PE claims off-fabric neighbors")
	}
	if !pe.HasNeighbor(PortEast) || !pe.HasNeighbor(PortSouth) {
		t.Error("corner PE missing real neighbors")
	}
	// Out-channel of (0,0) east must be in-channel of (1,0) west.
	if f.PE(0, 0).out[PortEast] != f.PE(1, 0).in[PortWest] {
		t.Error("east link not shared")
	}
	if f.PE(1, 1).out[PortNorth] != f.PE(1, 0).in[PortSouth] {
		t.Error("north link not shared")
	}
}

func TestPEPanicsOutsideFabric(t *testing.T) {
	f := newFabric(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("PE(5,5) did not panic")
		}
	}()
	f.PE(5, 5)
}

func TestPortHelpers(t *testing.T) {
	if PortNorth.Opposite() != PortSouth || PortEast.Opposite() != PortWest {
		t.Error("opposites wrong")
	}
	// §5.2.2 clockwise relay rule.
	if PortWest.ClockwiseTurn() != PortSouth ||
		PortSouth.ClockwiseTurn() != PortEast ||
		PortEast.ClockwiseTurn() != PortNorth ||
		PortNorth.ClockwiseTurn() != PortWest {
		t.Error("clockwise turns wrong")
	}
	if PortRamp.String() != "ramp" || Port(9).String() == "" {
		t.Error("port names wrong")
	}
}

func TestOppositeOfRampPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PortRamp.Opposite did not panic")
		}
	}()
	_ = PortRamp.Opposite()
}

func TestWaveletF32RoundTrip(t *testing.T) {
	for _, v := range []float32{0, 1.5, -2.25e7, float32(math.Pi)} {
		w := FromF32(3, v)
		if w.F32() != v || w.Color != 3 {
			t.Errorf("round trip of %g failed", v)
		}
	}
}

func TestCommandEncoding(t *testing.T) {
	data := EncodeCommand(7, 1)
	c, p := DecodeCommand(data)
	if c != 7 || p != 1 {
		t.Errorf("decode = (%d,%d)", c, p)
	}
	c, p = DecodeCommand(EncodeCommand(23, TogglePosition))
	if c != 23 || p != TogglePosition {
		t.Errorf("toggle decode = (%d,%d)", c, p)
	}
}

// TestPointToPoint sends a column east across a 2×1 fabric with a static
// route and checks delivery order and counters.
func TestPointToPoint(t *testing.T) {
	f := newFabric(t, 2, 1)
	const col Color = 2
	if err := f.PE(0, 0).Router().SetRoute(col, 0, PortRamp, PortEast); err != nil {
		t.Fatal(err)
	}
	if err := f.PE(1, 0).Router().SetRoute(col, 0, PortWest, PortRamp); err != nil {
		t.Fatal(err)
	}
	sent := []float32{1, 2, 3, 4, 5}
	var got []float32
	err := f.Run(func(pe *PE) error {
		if pe.X == 0 {
			pe.SendColumn(col, sent)
			return nil
		}
		for range sent {
			w, err := pe.Recv()
			if err != nil {
				return err
			}
			if w.Color != col {
				return fmt.Errorf("wrong color %d", w.Color)
			}
			got = append(got, w.F32())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sent {
		if got[i] != v {
			t.Fatalf("got[%d] = %g, want %g (order must be preserved)", i, got[i], v)
		}
	}
	tot := f.Totals()
	if tot.SentFromRamp != 5 || tot.DeliveredToPE != 5 || tot.Forwarded != 0 {
		t.Errorf("counters %+v", tot)
	}
	if tot.DroppedAtStop != 0 {
		t.Errorf("dropped %d wavelets", tot.DroppedAtStop)
	}
}

// TestMultiHopForward routes a wavelet through an intermediary router
// (west→east pass-through) without worker involvement.
func TestMultiHopForward(t *testing.T) {
	f := newFabric(t, 3, 1)
	const col Color = 4
	if err := f.PE(0, 0).Router().SetRoute(col, 0, PortRamp, PortEast); err != nil {
		t.Fatal(err)
	}
	if err := f.PE(1, 0).Router().SetRoute(col, 0, PortWest, PortEast); err != nil {
		t.Fatal(err)
	}
	if err := f.PE(2, 0).Router().SetRoute(col, 0, PortWest, PortRamp); err != nil {
		t.Fatal(err)
	}
	var got float32
	err := f.Run(func(pe *PE) error {
		switch pe.X {
		case 0:
			pe.Send(FromF32(col, 42))
		case 2:
			w, err := pe.Recv()
			if err != nil {
				return err
			}
			got = w.F32()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %g, want 42", got)
	}
	if f.Totals().Forwarded != 1 {
		t.Errorf("Forwarded = %d, want 1", f.Totals().Forwarded)
	}
}

// TestBroadcastFanout checks a route with multiple outputs (ramp → E+S+ramp).
func TestBroadcastFanout(t *testing.T) {
	f := newFabric(t, 2, 2)
	const col Color = 5
	if err := f.PE(0, 0).Router().SetRoute(col, 0, PortRamp, PortEast, PortSouth, PortRamp); err != nil {
		t.Fatal(err)
	}
	f.PE(1, 0).Router().SetRoute(col, 0, PortWest, PortRamp)
	f.PE(0, 1).Router().SetRoute(col, 0, PortNorth, PortRamp)
	got := make([]float32, 3)
	err := f.Run(func(pe *PE) error {
		switch {
		case pe.X == 0 && pe.Y == 0:
			pe.Send(FromF32(col, 7))
			w, err := pe.Recv()
			if err != nil {
				return err
			}
			got[0] = w.F32()
		case pe.X == 1 && pe.Y == 0:
			w, err := pe.Recv()
			if err != nil {
				return err
			}
			got[1] = w.F32()
		case pe.X == 0 && pe.Y == 1:
			w, err := pe.Recv()
			if err != nil {
				return err
			}
			got[2] = w.F32()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 7 {
			t.Fatalf("receiver %d got %g", i, v)
		}
	}
}

func TestRouteValidation(t *testing.T) {
	f := newFabric(t, 2, 1)
	rt := f.PE(0, 0).Router()
	if err := rt.SetRoute(Color(40), 0, PortRamp, PortEast); err == nil {
		t.Error("color out of range accepted")
	}
	if err := rt.SetRoute(2, 3, PortRamp, PortEast); err == nil {
		t.Error("position out of range accepted")
	}
	if err := rt.SetRoute(2, 0, Port(9), PortEast); err == nil {
		t.Error("bad from-port accepted")
	}
	if err := rt.SetRoute(2, 0, PortRamp, PortWest); err == nil {
		t.Error("route across fabric edge accepted")
	}
	if err := rt.SetCommandColor(Color(99)); err == nil {
		t.Error("bad command color accepted")
	}
}

func TestMissingRouteIsAnError(t *testing.T) {
	f := newFabric(t, 2, 1)
	// No routes installed at all: sending must surface a routing error.
	err := f.Run(func(pe *PE) error {
		if pe.X == 0 {
			pe.Send(FromF32(3, 1))
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "no route") {
		t.Fatalf("expected routing error, got %v", err)
	}
}

func TestWorkerErrorsAreCollected(t *testing.T) {
	f := newFabric(t, 2, 2)
	sentinel := errors.New("boom")
	err := f.Run(func(pe *PE) error {
		if pe.X == 1 && pe.Y == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("worker error lost: %v", err)
	}
}

func TestWorkerPanicsBecomeErrors(t *testing.T) {
	f := newFabric(t, 1, 1)
	err := f.Run(func(pe *PE) error {
		panic("kernel bug")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

func TestRecvTimeout(t *testing.T) {
	f, err := New(Config{Width: 1, Height: 1, RecvTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	err = f.Run(func(pe *PE) error {
		_, err := pe.Recv()
		return err
	})
	if !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("want ErrRecvTimeout, got %v", err)
	}
}

// A wavelet already on the ramp is taken without arming the timeout's timer.
func TestRecvQueuedWaveletAllocatesNothing(t *testing.T) {
	pe := newFabric(t, 1, 1).PE(0, 0)
	allocs := testing.AllocsPerRun(100, func() {
		pe.rampIn <- FromF32(2, 1)
		if _, err := pe.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Recv with a queued wavelet allocates %g objects, want 0", allocs)
	}
}

func TestPEMemoryIsolated(t *testing.T) {
	f := newFabric(t, 2, 1)
	err := f.Run(func(pe *PE) error {
		d, err := pe.Mem.Alloc(4)
		if err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			pe.Mem.StoreHost(d, i, float32(pe.X+1))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Memories must differ between PEs (same offsets, different contents).
	head := dsd.Desc{Base: 0, Len: 4, Stride: 1}
	da := f.PE(0, 0).Mem.ReadAll(head)
	db := f.PE(1, 0).Mem.ReadAll(head)
	if da[0] != 1 || db[0] != 2 {
		t.Errorf("PE memories shared or misloaded: %g %g", da[0], db[0])
	}
}
