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

// Width returns the fabric width in PEs: the last PE sits at the far corner.
func (f *Fabric) Width() int { return f.pes[len(f.pes)-1].X + 1 }

// Height returns the fabric height in PEs.
func (f *Fabric) Height() int { return f.pes[len(f.pes)-1].Y + 1 }

// PE returns the processing element at (x, y).
func (f *Fabric) PE(x, y int) *PE {
	if w, h := f.Width(), f.Height(); x < 0 || x >= w || y < 0 || y >= h {
		panic(fmt.Sprintf("fabric: PE(%d,%d) outside %dx%d fabric", x, y, w, h))
	}
	return f.pes[y*f.Width()+x]
}

// Send emits one wavelet from the worker: a column of one word.
func (pe *PE) Send(w Wavelet) { pe.SendColumn(w.Color, []float32{w.F32()}) }

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

// TestPointToPoint sends a column east across a 2×1 fabric with a static
// route and checks delivery order and counters.
func TestPointToPoint(t *testing.T) {
	f := newFabric(t, 2, 1)
	const col Color = 2
	if err := f.PE(0, 0).rt.SetRoute(col, PortRamp, PortEast); err != nil {
		t.Fatal(err)
	}
	if err := f.PE(1, 0).rt.SetRoute(col, PortWest, PortRamp); err != nil {
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
	if tot := f.Totals(); tot.DeliveredToPE != 5 || tot.DroppedAtStop != 0 {
		t.Errorf("counters %+v, want 5 delivered and none dropped", tot)
	}
}

// A route is ramp→link or link→ramp, of a routable color, over a link that
// exists.
func TestRouteValidation(t *testing.T) {
	rt := newFabric(t, 2, 1).PE(0, 0).rt
	for _, tc := range []struct {
		name     string
		c        Color
		from, to Port
	}{
		{"color out of range", 40, PortRamp, PortEast},
		{"bad from-port", 2, Port(9), PortEast},
		{"bad to-port", 2, PortEast, Port(9)},
		{"ramp→link across the fabric edge", 2, PortRamp, PortWest},
		{"link→ramp across the fabric edge", 2, PortNorth, PortRamp},
		{"ramp→ramp", 2, PortRamp, PortRamp},
		{"link→link", 2, PortEast, PortEast},
	} {
		if err := rt.SetRoute(tc.c, tc.from, tc.to); err == nil {
			t.Errorf("%s: route %d %v→%v accepted", tc.name, tc.c, tc.from, tc.to)
		}
	}
	if err := rt.SetRoute(2, PortRamp, PortEast); err != nil {
		t.Errorf("ramp→east refused: %v", err)
	}
	if err := rt.SetRoute(2, PortEast, PortRamp); err != nil {
		t.Errorf("east→ramp refused: %v", err)
	}
}

// A missing route on either end of the link is a routing error naming the
// PE that lacks it, and the receiver the wavelet never reaches ends in a
// deadlock, not a hang: with no routes at all the sender is blamed; with
// the sender's ramp→east route alone, the receiver, which must route the
// color from its west port to its ramp.
func TestMissingRouteIsAnError(t *testing.T) {
	const col Color = 3
	for _, tc := range []struct {
		name        string
		senderRoute bool
		want        string
	}{
		{"no routes", false, "PE(0,0) has no route for color 3 from ramp"},
		{"receiver lacks its route", true, "PE(1,0) has no route for color 3 from west"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFabric(t, 2, 1)
			if tc.senderRoute {
				if err := f.PE(0, 0).rt.SetRoute(col, PortRamp, PortEast); err != nil {
					t.Fatal(err)
				}
			}
			err := f.Run(func(pe *PE) error {
				if pe.X == 0 {
					pe.Send(FromF32(col, 1))
					return nil
				}
				_, err := pe.Recv()
				return err
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Count(err.Error(), "no route") != 1 {
				t.Fatalf("want the one routing error %q, got %v", tc.want, err)
			}
			if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "PE(1,0) waits in Recv") {
				t.Fatalf("expected PE(1,0) to end in ErrDeadlock, got %v", err)
			}
		})
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
// backing array, so a Send to a neighbor and its Recv allocate nothing.
func TestRecvQueuedWaveletAllocatesNothing(t *testing.T) {
	f := newFabric(t, 2, 1)
	from, to := f.PE(0, 0), f.PE(1, 0)
	if err := from.rt.SetRoute(2, PortRamp, PortEast); err != nil {
		t.Fatal(err)
	}
	if err := to.rt.SetRoute(2, PortWest, PortRamp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		from.Send(FromF32(2, 1))
		if _, err := to.Recv(); err != nil {
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
