package fabric

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

const testBase Color = 4

// originOffset is where each origin sits relative to the receiver, written
// out independently of the port arithmetic in exchange.go.
var originOffset = [NumOrigins][2]int{
	FromNorth: {0, -1}, FromEast: {1, 0}, FromSouth: {0, 1}, FromWest: {-1, 0},
	FromNorthWest: {-1, -1}, FromNorthEast: {1, -1}, FromSouthEast: {1, 1}, FromSouthWest: {-1, 1},
}

// stamp fills a payload that names its sender, its round and each word's
// position (every value is a small integer, exact in float32).
func stamp(dst []float32, x, y, round int) {
	for k := range dst {
		dst[k] = float32(((round*8+y)*8+x)*8 + k)
	}
}

func installExchange(t *testing.T, f *Fabric, diagonals bool) {
	t.Helper()
	if err := f.ForEachPE(func(pe *PE) error { return InstallExchange(pe, testBase, diagonals) }); err != nil {
		t.Fatal(err)
	}
}

// checkStamp is a deliver callback's body: the payload from origin o in the
// given round must be the stamp of the PE at that offset.
func checkStamp(pe *PE, o Origin, data []float32, round int) error {
	want := make([]float32, len(data))
	stamp(want, pe.X+originOffset[o][0], pe.Y+originOffset[o][1], round)
	for k := range want {
		if data[k] != want[k] {
			return fmt.Errorf("PE(%d,%d) round %d origin %d: word %d = %g, want %g", pe.X, pe.Y, round, o, k, data[k], want[k])
		}
	}
	return nil
}

func TestExchangeDeliversEveryNeighbor(t *testing.T) {
	const rounds = 3
	for _, dims := range [][2]int{{1, 1}, {1, 4}, {3, 3}, {4, 3}} {
		for _, width := range []int{1, 5} {
			for _, diagonals := range []bool{true, false} {
				w, h := dims[0], dims[1]
				t.Run(fmt.Sprintf("%dx%d/width=%d/diagonals=%v", w, h, width, diagonals), func(t *testing.T) {
					f := newFabric(t, w, h)
					installExchange(t, f, diagonals)

					// Expects must equal the geometry: the neighbor is on the
					// fabric, and corners count only with diagonals on.
					for y := 0; y < h; y++ {
						for x := 0; x < w; x++ {
							ex := NewExchange(f.PE(x, y), testBase, width, diagonals)
							n := 0
							for o := Origin(0); o < NumOrigins; o++ {
								nx, ny := x+originOffset[o][0], y+originOffset[o][1]
								want := nx >= 0 && nx < w && ny >= 0 && ny < h && (diagonals || o < FromNorthWest)
								if ex.Expects(o) != want {
									t.Errorf("PE(%d,%d).Expects(%d) = %v, want %v", x, y, o, !want, want)
								}
								if want {
									n++
								}
							}
							if corner := (x == 0 || x == w-1) && (y == 0 || y == h-1); w == 3 && h == 3 && diagonals && corner && n != 3 {
								t.Errorf("corner PE(%d,%d) expects %d payloads, want 2 cardinal + 1 diagonal", x, y, n)
							}
						}
					}

					err := f.Run(func(pe *PE) error {
						ex := NewExchange(pe, testBase, width, diagonals)
						own := make([]float32, width)
						for r := 0; r < rounds; r++ {
							stamp(own, pe.X, pe.Y, r)
							ex.Send(own)
							var seen [NumOrigins]bool
							err := ex.Collect(func(o Origin, data []float32) error {
								if seen[o] {
									return fmt.Errorf("PE(%d,%d) round %d: origin %d delivered twice", pe.X, pe.Y, r, o)
								}
								seen[o] = true
								return checkStamp(pe, o, data, r)
							})
							if err != nil {
								return err
							}
							for o := range seen {
								if seen[o] != ex.Expects(Origin(o)) {
									return fmt.Errorf("PE(%d,%d) round %d: origin %d delivered=%v, expected=%v", pe.X, pe.Y, r, o, seen[o], !seen[o])
								}
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}

					// One payload per directed adjacency per round: cardinal
					// pairs both ways, and with diagonals the two diagonals
					// of every 2×2 block both ways.
					adjacencies := 2 * ((w-1)*h + w*(h-1))
					if diagonals {
						adjacencies += 4 * (w - 1) * (h - 1)
					}
					want := uint64(rounds * width * adjacencies)
					if tot := f.Totals(); tot.DeliveredToPE != want || tot.DroppedAtStop != 0 {
						t.Errorf("delivered %d, dropped %d, want %d and 0", tot.DeliveredToPE, tot.DroppedAtStop, want)
					}
				})
			}
		}
	}
}

// TestExchangeCarriesOneRoundAhead holds the east PE of a 3×1 row back until
// the west PE's next-round payload already sits on the middle PE's ramp, so
// the middle PE must buffer it while it waits and deliver it first thing in
// the next round.
func TestExchangeCarriesOneRoundAhead(t *testing.T) {
	const rounds, width = 3, 5
	f := newFabric(t, 3, 1)
	installExchange(t, f, true)
	middle := f.PE(1, 0)
	carried := 0
	err := f.Run(func(pe *PE) error {
		ex := NewExchange(pe, testBase, width, true)
		own := make([]float32, width)
		for r := 0; r < rounds; r++ {
			if pe.X == 2 && r < rounds-1 {
				// The middle PE has r payloads from here and gets r+2 from
				// the west before this round's send.
				deadline := time.Now().Add(5 * time.Second)
				for delivered(middle) < uint64((2*r+2)*width) {
					if time.Now().After(deadline) {
						return errors.New("west PE never ran ahead")
					}
					runtime.Gosched()
				}
			}
			stamp(own, pe.X, pe.Y, r)
			ex.Send(own)
			err := ex.Collect(func(o Origin, data []float32) error {
				if pe.X == 1 && o == FromEast && len(ex.streams[FromWest].buf) == width {
					carried++
				}
				return checkStamp(pe, o, data, r)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if carried != rounds-1 {
		t.Errorf("the middle PE held a next-round payload in %d rounds, want %d", carried, rounds-1)
	}
}

// delivered reads pe's delivery count mid-run, under the fabric mutex
// routing writes it under.
func delivered(pe *PE) uint64 {
	pe.fab.mu.Lock()
	defer pe.fab.mu.Unlock()
	return pe.rt.C.DeliveredToPE
}

// strayRoute lets PE(0,0) of a row send color c to PE(1,0)'s ramp.
func strayRoute(t *testing.T, f *Fabric, c Color) {
	t.Helper()
	if err := f.PE(0, 0).rt.SetRoute(c, PortRamp, PortEast); err != nil {
		t.Fatal(err)
	}
	if err := f.PE(1, 0).rt.SetRoute(c, PortWest, PortRamp); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeRejectsStrayColor(t *testing.T) {
	cases := []struct {
		name  string
		color Color
		route bool
	}{
		{"below base", testBase - 1, true},
		{"above base+7", testBase + Color(NumOrigins), true},
		// A relayed SW corner needs a south neighbor, which a row lacks; the
		// exchange's own routes carry the color.
		{"unexpected origin", testBase + Color(FromSouthWest), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFabric(t, 2, 1)
			installExchange(t, f, true)
			if tc.route {
				strayRoute(t, f, tc.color)
			}
			err := f.Run(func(pe *PE) error {
				if pe.X == 0 {
					pe.Send(FromF32(tc.color, 1))
				}
				ex := NewExchange(pe, testBase, 1, true)
				ex.Send([]float32{0})
				return ex.Collect(func(Origin, []float32) error { return nil })
			})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("PE(1,0) exchange: unexpected color %d", tc.color)) {
				t.Fatalf("want an unexpected-color error from PE(1,0), got %v", err)
			}
		})
	}
}

func TestExchangeOverrunIsAnError(t *testing.T) {
	// The west PE sends three rounds without collecting while the middle PE
	// waits for an east PE that never sends: round 0 is delivered, round 1 is
	// the allowed look-ahead, round 2 is the overrun.
	f := newFabric(t, 3, 1)
	installExchange(t, f, true)
	err := f.Run(func(pe *PE) error {
		ex := NewExchange(pe, testBase, 2, true)
		switch pe.X {
		case 0:
			for r := 0; r < 3; r++ {
				ex.Send([]float32{0, 0})
			}
		case 1:
			ex.Send([]float32{0, 0})
			return ex.Collect(func(Origin, []float32) error { return nil })
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "PE(1,0) exchange: color 7 overran two rounds") {
		t.Fatalf("want an overrun error from PE(1,0) on the from-west color, got %v", err)
	}
}

func TestExchangeCollectDeadlocks(t *testing.T) {
	f := newFabric(t, 2, 1)
	installExchange(t, f, true)
	err := f.Run(func(pe *PE) error {
		if pe.X == 0 {
			return nil // never sends
		}
		ex := NewExchange(pe, testBase, 1, true)
		ex.Send([]float32{0})
		return ex.Collect(func(Origin, []float32) error { return nil })
	})
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "PE(1,0) waits in Recv") {
		t.Fatalf("want ErrDeadlock naming PE(1,0), got %v", err)
	}
}

func TestInstallExchangeRoutes(t *testing.T) {
	f := newFabric(t, 3, 3)
	installExchange(t, f, false)
	for _, pe := range f.pes {
		for o := Origin(0); o < NumOrigins; o++ {
			installed := false
			for _, to := range pe.rt.out[testBase+Color(o)] {
				installed = installed || to != NumPorts
			}
			if installed != (o < FromNorthWest) {
				t.Errorf("PE(%d,%d) without diagonals: route for origin %d installed = %v", pe.X, pe.Y, o, installed)
			}
		}
	}
	if err := InstallExchange(f.PE(1, 1), MaxColors-Color(NumOrigins)+1, true); err == nil {
		t.Error("a base color whose eighth color is past MaxColors was accepted")
	}
}

// A correct protocol never reads as a deadlock, whatever the schedule: 20
// exchange rounds on 4×3 and 8×8 fabrics, repeated (run it under -race, and
// with -count, to vary the schedule).
func TestCorrectProtocolsNeverDeadlock(t *testing.T) {
	for rep := 0; rep < 5; rep++ {
		for _, dims := range [][2]int{{4, 3}, {8, 8}} {
			f := newFabric(t, dims[0], dims[1])
			installExchange(t, f, true)
			err := f.Run(func(pe *PE) error {
				ex := NewExchange(pe, testBase, 3, true)
				own := make([]float32, 3)
				for r := 0; r < 20; r++ {
					stamp(own, pe.X, pe.Y, r)
					ex.Send(own)
					if err := ex.Collect(func(o Origin, data []float32) error { return checkStamp(pe, o, data, r) }); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("exchange %dx%d: %v", dims[0], dims[1], err)
			}
			if tot := f.Totals(); tot.DroppedAtStop != 0 {
				t.Fatalf("exchange %dx%d left %d wavelets unread", dims[0], dims[1], tot.DroppedAtStop)
			}
		}
	}
}
