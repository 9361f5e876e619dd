package fabric

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// The paper's Fig. 6 scenario, built and checked by these tests (the only
// users of the router's switch commands): the eastward localized broadcast
// used to exchange cell values along the X dimension with a single data
// color, alternating each PE between Sending (router configuration 0: ramp
// → east) and Receiving (configuration 1: west → ramp) via switch commands
// that travel through the same pattern.
//
// Protocol (two steps, Fig. 6b):
//
//	step 1: even-column PEs are Senders, odd-column PEs are Receivers.
//	        Each Sender emits its value eastward, then a toggle command.
//	        The command reconfigures the data color at the Sender (observed
//	        through a ramp echo) and at its eastern neighbor on arrival,
//	        exchanging the two roles.
//	step 2: the former Receivers, now Senders, emit their values eastward.
//
// After both steps every PE except column 0 holds its western neighbor's
// value — with only one data color and no per-PE route tables.
//
// On hardware, signal propagation makes step 2 data physically arrive after
// the step 1 switch commands. The simulator has no propagation delay, so the
// broadcast inserts a worker barrier between the steps; the command echo
// guarantees each router applied its own switch before its worker passes the
// barrier.

const (
	// BroadcastDataColor carries cell values in the Fig. 6 demo.
	BroadcastDataColor Color = 0
	// BroadcastCmdColor carries the switch commands.
	BroadcastCmdColor Color = 1
)

// ConfigureEastwardBroadcast installs the Fig. 6 routes on a fabric row:
// data color position 0 routes ramp→east (Sender), position 1 routes
// west→ramp (Receiver); the command color travels ramp→{east, ramp-echo} and
// west→ramp in both positions. Even columns start at position 0, odd at 1.
func ConfigureEastwardBroadcast(f *Fabric, row int) error {
	for x := 0; x < f.Width(); x++ {
		pe := f.PE(x, row)
		rt := pe.Router()
		if err := rt.SetCommandColor(BroadcastCmdColor); err != nil {
			return err
		}
		// Sender configuration (position 0): local value flows east (or is
		// consumed at the wafer edge).
		east := []Port{}
		if pe.HasNeighbor(PortEast) {
			east = []Port{PortEast}
		}
		if err := rt.SetRoute(BroadcastDataColor, 0, PortRamp, east...); err != nil {
			return err
		}
		// Receiver configuration (position 1): western data reaches the PE.
		if err := rt.SetRoute(BroadcastDataColor, 1, PortWest, PortRamp); err != nil {
			return err
		}
		// Command color: east + local echo from the ramp; consumed (and
		// applied) when arriving from the west. Same in both positions.
		cmdOut := append(append([]Port{}, east...), PortRamp)
		for pos := uint8(0); pos <= 1; pos++ {
			if err := rt.SetRoute(BroadcastCmdColor, pos, PortRamp, cmdOut...); err != nil {
				return err
			}
			if err := rt.SetRoute(BroadcastCmdColor, pos, PortWest, PortRamp); err != nil {
				return err
			}
		}
		if x%2 == 1 {
			if err := rt.setPosition(BroadcastDataColor, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// EastwardBroadcast runs the two-step Fig. 6 exchange on row 0 of a W×1
// fabric: PE x contributes values[x]; the returned slice holds, at index x,
// the value received from the western neighbor (index 0 stays zero).
func EastwardBroadcast(f *Fabric, values []float32) ([]float32, error) {
	if len(values) != f.Width() {
		return nil, fmt.Errorf("fabric: need %d values for width-%d fabric, got %d", f.Width(), f.Width(), len(values))
	}
	if err := ConfigureEastwardBroadcast(f, 0); err != nil {
		return nil, err
	}
	received := make([]float32, f.Width())
	bar := &barrier{f: f, parties: f.Width()}
	err := f.Run(func(pe *PE) error {
		sender := pe.X%2 == 0
		for step := 0; step < 2; step++ {
			if sender {
				if pe.HasNeighbor(PortEast) {
					pe.Send(FromF32(BroadcastDataColor, values[pe.X]))
				}
				// Toggle self and eastern neighbor; wait for the echo so the
				// local router has provably switched.
				pe.Send(Wavelet{Color: BroadcastCmdColor, Data: EncodeCommand(BroadcastDataColor, TogglePosition)})
				echo, err := pe.Recv()
				if err != nil {
					return fmt.Errorf("step %d echo: %w", step, err)
				}
				if echo.Color != BroadcastCmdColor {
					return fmt.Errorf("step %d: expected command echo, got color %d", step, echo.Color)
				}
			} else if pe.HasNeighbor(PortWest) {
				w, err := pe.Recv()
				if err != nil {
					return fmt.Errorf("step %d: %w", step, err)
				}
				if w.Color != BroadcastDataColor {
					return fmt.Errorf("step %d: expected data wavelet, got color %d", step, w.Color)
				}
				received[pe.X] = w.F32()
				// The neighbor's command follows the data on the same link.
				c, err := pe.Recv()
				if err != nil {
					return fmt.Errorf("step %d: %w", step, err)
				}
				if c.Color != BroadcastCmdColor {
					return fmt.Errorf("step %d: expected command wavelet, got color %d", step, c.Color)
				}
			}
			if err := bar.await(pe); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
			sender = !sender
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return received, nil
}

// barrier is a reusable cyclic barrier for a fabric's worker goroutines. It
// lives on the fabric mutex, and a worker waiting in it counts as blocked,
// so a worker that returns before the barrier ends the run in ErrDeadlock.
type barrier struct {
	f       *Fabric
	parties int
	waiting []*PE
}

// await blocks pe until all parties have arrived; the last one releases the
// others.
func (b *barrier) await(pe *PE) error {
	b.f.mu.Lock()
	defer b.f.mu.Unlock()
	if len(b.waiting)+1 < b.parties {
		b.waiting = append(b.waiting, pe)
		return pe.park(inBarrier)
	}
	for _, w := range b.waiting {
		w.unpark(inBarrier)
	}
	b.waiting = b.waiting[:0]
	return nil
}

// setPosition force-sets a color's switch position during configuration
// (initial role assignment; runtime changes go through command wavelets).
func (r *router) setPosition(c Color, pos uint8) error {
	if c >= MaxColors || r.entries[c] == nil {
		return fmt.Errorf("fabric: cannot set position of unrouted color %d", c)
	}
	if pos > 1 {
		return fmt.Errorf("fabric: invalid position %d", pos)
	}
	r.entries[c].pos = pos
	return nil
}

// Router exposes the PE's router for route configuration (before Run) and
// for counter/position inspection (after).
func (pe *PE) Router() *router { return pe.rt }

// SetCommandColor nominates the control color whose wavelets carry switch
// commands. Command wavelets are routed like data (so commands propagate
// along the same pattern) and then applied to this router.
func (r *router) SetCommandColor(c Color) error {
	if c >= MaxColors {
		return fmt.Errorf("fabric: command color %d out of range", c)
	}
	r.cmd, r.hasCmd = c, true
	return nil
}

// EncodeCommand packs a switch command payload.
func EncodeCommand(target Color, newPos uint8) uint32 {
	return uint32(target) | uint32(newPos)<<8
}

// Position returns the current switch position of a color (tests observe the
// Fig. 6 alternation through this).
func (r *router) Position(c Color) uint8 {
	if e := r.entries[c]; e != nil {
		return e.pos
	}
	return 0
}

func broadcastFabric(t *testing.T, w int) *Fabric {
	t.Helper()
	f, err := New(Config{Width: w, Height: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEastwardBroadcastEvenWidth(t *testing.T) {
	f := broadcastFabric(t, 6)
	values := []float32{10, 11, 12, 13, 14, 15}
	got, err := EastwardBroadcast(f, values)
	if err != nil {
		t.Fatal(err)
	}
	// Every PE except column 0 must hold its western neighbor's value
	// (paper Fig. 6b: "after two steps, all data have been sent and
	// received by all PEs").
	for x := 1; x < 6; x++ {
		if got[x] != values[x-1] {
			t.Errorf("PE %d received %g, want %g", x, got[x], values[x-1])
		}
	}
	if got[0] != 0 {
		t.Errorf("PE 0 has no western neighbor but received %g", got[0])
	}
}

func TestEastwardBroadcastOddWidth(t *testing.T) {
	f := broadcastFabric(t, 5)
	values := []float32{1, 2, 3, 4, 5}
	got, err := EastwardBroadcast(f, values)
	if err != nil {
		t.Fatal(err)
	}
	for x := 1; x < 5; x++ {
		if got[x] != values[x-1] {
			t.Errorf("PE %d received %g, want %g", x, got[x], values[x-1])
		}
	}
}

func TestEastwardBroadcastSinglePE(t *testing.T) {
	f := broadcastFabric(t, 1)
	got, err := EastwardBroadcast(f, []float32{99})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("lone PE received %g", got[0])
	}
}

func TestEastwardBroadcastLengthMismatch(t *testing.T) {
	f := broadcastFabric(t, 4)
	if _, err := EastwardBroadcast(f, []float32{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestBroadcastUsesSwitchCommands(t *testing.T) {
	f := broadcastFabric(t, 4)
	if _, err := EastwardBroadcast(f, []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	tot := f.Totals()
	if f.sums().commands == 0 {
		t.Error("no switch commands were applied — the Fig. 6 mechanism was bypassed")
	}
	if tot.DroppedAtStop != 0 {
		t.Errorf("%d wavelets dropped at shutdown", tot.DroppedAtStop)
	}
}

func TestBroadcastTogglesRouterPositions(t *testing.T) {
	// After an even number of toggles every PE ends where it started, so
	// observe mid-protocol state instead: run a 2-PE exchange manually.
	f := broadcastFabric(t, 2)
	if err := ConfigureEastwardBroadcast(f, 0); err != nil {
		t.Fatal(err)
	}
	if pos := f.PE(0, 0).Router().Position(BroadcastDataColor); pos != 0 {
		t.Fatalf("PE0 starts at position %d, want 0 (sender)", pos)
	}
	if pos := f.PE(1, 0).Router().Position(BroadcastDataColor); pos != 1 {
		t.Fatalf("PE1 starts at position %d, want 1 (receiver)", pos)
	}
	err := f.Run(func(pe *PE) error {
		if pe.X == 0 {
			pe.Send(FromF32(BroadcastDataColor, 5))
			pe.Send(Wavelet{Color: BroadcastCmdColor, Data: EncodeCommand(BroadcastDataColor, TogglePosition)})
			return nil
		}
		if _, err := pe.Recv(); err != nil { // data
			return err
		}
		if _, err := pe.Recv(); err != nil { // command token
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One toggle each: roles must have swapped.
	if pos := f.PE(0, 0).Router().Position(BroadcastDataColor); pos != 1 {
		t.Errorf("PE0 position after toggle = %d, want 1", pos)
	}
	if pos := f.PE(1, 0).Router().Position(BroadcastDataColor); pos != 0 {
		t.Errorf("PE1 position after toggle = %d, want 0", pos)
	}
}

func TestSetPositionValidation(t *testing.T) {
	f := broadcastFabric(t, 2)
	rt := f.PE(0, 0).Router()
	if err := rt.setPosition(BroadcastDataColor, 0); err == nil {
		t.Error("setPosition on unrouted color accepted")
	}
	if err := rt.SetRoute(BroadcastDataColor, 0, PortRamp, PortEast); err != nil {
		t.Fatal(err)
	}
	if err := rt.setPosition(BroadcastDataColor, 2); err == nil {
		t.Error("invalid position accepted")
	}
	if err := rt.setPosition(BroadcastDataColor, 1); err != nil {
		t.Error(err)
	}
	if rt.Position(BroadcastDataColor) != 1 {
		t.Error("position not set")
	}
}

func TestUnknownCommandTargetIsError(t *testing.T) {
	f := broadcastFabric(t, 1)
	rt := f.PE(0, 0).Router()
	if err := rt.SetCommandColor(BroadcastCmdColor); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRoute(BroadcastCmdColor, 0, PortRamp); err != nil {
		t.Fatal(err)
	}
	err := f.Run(func(pe *PE) error {
		pe.Send(Wavelet{Color: BroadcastCmdColor, Data: EncodeCommand(Color(13), 0)})
		return nil
	})
	if err == nil {
		t.Error("command for unrouted color did not error")
	}
}

// A worker that returns before the Fig. 6 barrier leaves the others waiting
// in it; the run ends in ErrDeadlock naming them instead of hanging.
func TestBarrierWithAWorkerGoneIsADeadlock(t *testing.T) {
	f := broadcastFabric(t, 3)
	bar := &barrier{f: f, parties: 3}
	err := f.Run(func(pe *PE) error {
		if pe.X == 2 {
			return nil
		}
		return bar.await(pe)
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	for _, name := range []string{"PE(0,0) waits in a barrier", "PE(1,0) waits in a barrier"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not say %q: %v", name, err)
		}
	}
}
