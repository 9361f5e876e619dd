package fabric

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dsd"
)

func newFabric(t *testing.T, w, h int) *Fabric {
	t.Helper()
	f, err := New(Config{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 3},
		{Width: 3, Height: -1},
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
	// Every neighbor pointer names the adjacent PE, and the link is
	// symmetric: the neighbor's opposite port points back.
	for y := 0; y < 2; y++ {
		for x := 0; x < 3; x++ {
			pe := f.PE(x, y)
			for _, p := range LinkPorts {
				nx, ny := x, y
				switch p {
				case PortNorth:
					ny--
				case PortEast:
					nx++
				case PortSouth:
					ny++
				case PortWest:
					nx--
				}
				if nx < 0 || nx >= 3 || ny < 0 || ny >= 2 {
					if pe.nbr[p] != nil {
						t.Errorf("PE(%d,%d) has a %v neighbor off the fabric", x, y, p)
					}
					continue
				}
				if pe.nbr[p] != f.PE(nx, ny) || pe.nbr[p].nbr[p.Opposite()] != pe {
					t.Errorf("PE(%d,%d) %v neighbor is not PE(%d,%d) pointing back", x, y, p, nx, ny)
				}
			}
		}
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
	// No routes installed at all: sending must surface a routing error, and
	// the receiver the wavelet never reaches must end in a deadlock, not a
	// hang.
	err := f.Run(func(pe *PE) error {
		if pe.X == 0 {
			pe.Send(FromF32(3, 1))
			return nil
		}
		_, err := pe.Recv()
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "no route") {
		t.Fatalf("expected routing error, got %v", err)
	}
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "PE(1,0) waits in Recv") {
		t.Fatalf("expected PE(1,0) to end in ErrDeadlock, got %v", err)
	}
}

// A route that leads back into itself is a routing error, not an endless
// forward.
func TestRoutingCycleIsAnError(t *testing.T) {
	f := newFabric(t, 2, 1)
	const col Color = 6
	if err := f.PE(0, 0).Router().SetRoute(col, 0, PortRamp, PortEast); err != nil {
		t.Fatal(err)
	}
	if err := f.PE(0, 0).Router().SetRoute(col, 0, PortEast, PortEast); err != nil {
		t.Fatal(err)
	}
	if err := f.PE(1, 0).Router().SetRoute(col, 0, PortWest, PortWest); err != nil {
		t.Fatal(err)
	}
	err := f.Run(func(pe *PE) error {
		if pe.X == 0 {
			pe.Send(FromF32(col, 1))
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "routes in a cycle") {
		t.Fatalf("expected a routing-cycle error, got %v", err)
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

// Run reports the first eight worker errors and counts the rest.
func TestWorkerErrorsSuppressedAreCounted(t *testing.T) {
	f := newFabric(t, 3, 4)
	err := f.Run(func(pe *PE) error { return fmt.Errorf("PE(%d,%d) failed", pe.X, pe.Y) })
	if err == nil || !strings.Contains(err.Error(), "... 4 more worker errors suppressed") {
		t.Fatalf("12 failing workers: want 8 errors and 4 suppressed, got %v", err)
	}
	if n := strings.Count(err.Error(), "failed"); n != 8 {
		t.Errorf("%d worker errors reported, want 8", n)
	}
}

func TestRunTwiceIsAnError(t *testing.T) {
	f := newFabric(t, 2, 1)
	if err := f.Run(func(*PE) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(func(*PE) error { return nil }); !errors.Is(err, ErrRunTwice) {
		t.Fatalf("second Run: want ErrRunTwice, got %v", err)
	}
}

// Run starts one goroutine per PE: a router is not a thread. The count is
// of the goroutines this test's Run created, read off a full stack dump
// while every worker is alive, so exiting workers of earlier tests do not
// blur it.
func TestRunStartsOneGoroutinePerPE(t *testing.T) {
	const w, h = 3, 2
	f := newFabric(t, w, h)
	buf := make([]byte, 1<<20)
	self := strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
	var started sync.WaitGroup
	started.Add(w * h)
	release := make(chan struct{})
	created := 0
	err := f.Run(func(pe *PE) error {
		started.Done()
		if pe.X == 0 && pe.Y == 0 {
			started.Wait()
			dump := string(buf[:runtime.Stack(buf, true)])
			created = strings.Count(dump, "created by repro/internal/fabric.(*Fabric).Run in goroutine "+self+"\n")
			close(release)
		}
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if created != w*h {
		t.Errorf("Run started %d goroutines, want %d (one per PE)", created, w*h)
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

// A worker waiting for a wavelet nobody will send is told at once, by name,
// both when it is alone and when the last other worker returns.
func TestRecvDeadlock(t *testing.T) {
	for _, w := range []int{1, 2} {
		f := newFabric(t, w, 1)
		err := f.Run(func(pe *PE) error {
			if pe.X == 1 {
				return nil // never sends
			}
			_, err := pe.Recv()
			return err
		})
		if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "PE(0,0) waits in Recv") {
			t.Fatalf("width %d: want ErrDeadlock naming PE(0,0), got %v", w, err)
		}
	}
}

// A wavelet in the inbox is taken without waiting; the inbox reuses its
// backing array, so a loopback Send + Recv allocates nothing.
func TestRecvQueuedWaveletAllocatesNothing(t *testing.T) {
	pe := newFabric(t, 1, 1).PE(0, 0)
	if err := pe.Router().SetRoute(2, 0, PortRamp, PortRamp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		pe.Send(FromF32(2, 1))
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
	head := dsd.Desc{Base: 0, Len: 4}
	da := f.PE(0, 0).Mem.HostView(head)
	db := f.PE(1, 0).Mem.HostView(head)
	if da[0] != 1 || db[0] != 2 {
		t.Errorf("PE memories shared or misloaded: %g %g", da[0], db[0])
	}
}
