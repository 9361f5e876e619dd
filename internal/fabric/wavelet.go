// Package fabric simulates the wafer-scale engine's interconnect: a 2D mesh
// of processing elements (PEs), each with a private memory, a vector engine,
// and a five-port router (North, East, South, West, Ramp — paper Fig. 2).
// Data moves in 32-bit wavelets tagged with a color; routers forward wavelets
// according to per-color routing rules with two switch positions that runtime
// commands can flip (paper Fig. 6). Each PE runs two goroutines: its router
// and its worker program, connected by the ramp. exchange.go holds the §5.2
// neighborhood exchange the flux and wave engines communicate through.
package fabric

import (
	"fmt"
	"math"
)

// Port identifies one of the router's five full-duplex links.
type Port uint8

const (
	PortNorth Port = iota
	PortEast
	PortSouth
	PortWest
	PortRamp
	NumPorts
)

var portNames = [NumPorts]string{"north", "east", "south", "west", "ramp"}

// String implements fmt.Stringer.
func (p Port) String() string {
	if p >= NumPorts {
		return fmt.Sprintf("Port(%d)", int(p))
	}
	return portNames[p]
}

// LinkPorts lists the four fabric-facing ports in a fixed order.
var LinkPorts = [4]Port{PortNorth, PortEast, PortSouth, PortWest}

// Opposite returns the port a wavelet sent out of p arrives on at the
// neighbor (north ↔ south, east ↔ west).
func (p Port) Opposite() Port {
	switch p {
	case PortNorth:
		return PortSouth
	case PortSouth:
		return PortNorth
	case PortEast:
		return PortWest
	case PortWest:
		return PortEast
	default:
		panic(fmt.Sprintf("fabric: port %v has no opposite", p))
	}
}

// ClockwiseTurn returns the output port for a wavelet that arrived from
// input port `from` and must turn 90° clockwise — the diagonal-relay rule of
// §5.2.2: data from the West is forwarded South, from South → East, from
// East → North, from North → West. (Arrival "from West" means the wavelet
// travels eastbound; turning it to southbound is the clockwise rotation of
// the paper's Fig. 5.)
func (p Port) ClockwiseTurn() Port {
	switch p {
	case PortWest:
		return PortSouth
	case PortSouth:
		return PortEast
	case PortEast:
		return PortNorth
	case PortNorth:
		return PortWest
	default:
		panic(fmt.Sprintf("fabric: no clockwise turn for port %v", p))
	}
}

// Color tags a wavelet for routing, like the hardware's 24 routable colors.
type Color uint8

// MaxColors matches the WSE's routable color budget.
const MaxColors = 24

// Wavelet is the 32-bit fabric packet plus its color tag.
type Wavelet struct {
	Color Color
	Data  uint32
}

// F32 returns the payload interpreted as float32 (the flux kernel exchanges
// pressure and gravity coefficients as raw float bits).
func (w Wavelet) F32() float32 { return math.Float32frombits(w.Data) }

// FromF32 builds a data wavelet carrying a float32 payload.
func FromF32(c Color, v float32) Wavelet {
	return Wavelet{Color: c, Data: math.Float32bits(v)}
}

// Command wavelets: the payload of a control wavelet encodes which color's
// route to switch and the new switch position (paper Fig. 6: "a router
// command is sent through the broadcast pattern, changing the configurations
// from one to the alternative router configuration").

// TogglePosition, used as a command's newPos, flips the target color's route
// to the alternative configuration — the paper's switch semantic.
const TogglePosition uint8 = 0xFF

// EncodeCommand packs a switch command payload.
func EncodeCommand(target Color, newPos uint8) uint32 {
	return uint32(target) | uint32(newPos)<<8
}

// DecodeCommand unpacks a switch command payload.
func DecodeCommand(data uint32) (target Color, newPos uint8) {
	return Color(data & 0xFF), uint8((data >> 8) & 0xFF)
}
