package fabric

import (
	"errors"
	"strings"
	"testing"
)

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
	if tot.Commands == 0 {
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
