package fabric

import (
	"fmt"
	"sync/atomic"
)

// RouteRule gives, for one color in one switch position, the set of output
// ports for a wavelet arriving on each input port. A nil entry means the
// color is not expected from that port (a routing error if it happens).
type RouteRule struct {
	out [NumPorts][]Port
}

// routeEntry is a color's routing state: two switch positions plus the
// active position (paper Fig. 6a: configuration 0 = sending/broadcast root,
// configuration 1 = receiving).
type routeEntry struct {
	rules [2]*RouteRule
	pos   uint8
}

// RouterCounters aggregates a router's traffic. Routing updates them under
// the fabric mutex; they are atomic so a worker may watch one mid-run.
type RouterCounters struct {
	SentFromRamp  atomic.Uint64 // ramp → link
	DeliveredToPE atomic.Uint64 // link → ramp
	Forwarded     atomic.Uint64 // link → link (multi-hop traffic)
	Commands      atomic.Uint64 // switch commands applied
	DroppedAtStop atomic.Uint64 // wavelets left unread in the inbox when Run returned
}

// router is one PE's five-port router: a switch, not a thread. Route
// configuration happens before the fabric runs (static routes) and at
// runtime through command wavelets; wavelets pass through it inside the
// sender's PE.Send.
type router struct {
	pe       *PE
	entries  [MaxColors]*routeEntry
	cmd      Color // command color; wavelets of this color flip switches
	hasCmd   bool
	C        RouterCounters
	routeErr error
}

// SetRoute installs outputs for (color, position, from-port). It may only be
// called before the fabric runs.
func (r *router) SetRoute(c Color, pos uint8, from Port, to ...Port) error {
	if c >= MaxColors {
		return fmt.Errorf("fabric: color %d out of range (max %d)", c, MaxColors-1)
	}
	if pos > 1 {
		return fmt.Errorf("fabric: switch position %d out of range", pos)
	}
	if from >= NumPorts {
		return fmt.Errorf("fabric: invalid from-port %d", from)
	}
	for _, p := range to {
		if p >= NumPorts {
			return fmt.Errorf("fabric: invalid to-port %d", p)
		}
		if p != PortRamp && !r.pe.HasNeighbor(p) {
			return fmt.Errorf("fabric: PE(%d,%d) route %v→%v crosses the fabric edge", r.pe.X, r.pe.Y, from, p)
		}
	}
	e := r.entries[c]
	if e == nil {
		e = &routeEntry{}
		r.entries[c] = e
	}
	if e.rules[pos] == nil {
		e.rules[pos] = &RouteRule{}
	}
	if to == nil {
		to = []Port{} // "consume without forwarding" is a valid route
	}
	e.rules[pos].out[from] = to
	return nil
}

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

// route carries one wavelet that arrives on port from through this router,
// with the fabric mutex held: it applies a switch command, then appends to
// the PE's inbox or hands the wavelet to the neighbor on each output port.
// hops counts the links crossed so far; a route that crosses more links
// than the fabric has is a cycle. A routing error is recorded in routeErr
// (Run reports it) and drops the wavelet.
func (r *router) route(w Wavelet, from Port, hops int) {
	if int(w.Color) >= len(r.entries) {
		r.fail(fmt.Errorf("fabric: PE(%d,%d) received wavelet with invalid color %d", r.pe.X, r.pe.Y, w.Color))
		return
	}
	e := r.entries[w.Color]
	if e == nil {
		r.fail(fmt.Errorf("fabric: PE(%d,%d) has no route for color %d (from %v)", r.pe.X, r.pe.Y, w.Color, from))
		return
	}
	rule := e.rules[e.pos]
	if rule == nil || rule.out[from] == nil {
		r.fail(fmt.Errorf("fabric: PE(%d,%d) color %d position %d has no route from %v", r.pe.X, r.pe.Y, w.Color, e.pos, from))
		return
	}
	if hops > len(r.pe.fab.pes)*len(LinkPorts) {
		r.fail(fmt.Errorf("fabric: PE(%d,%d) color %d routes in a cycle", r.pe.X, r.pe.Y, w.Color))
		return
	}
	// Apply switch commands before forwarding: each router reconfigures as
	// the command passes through it (Fig. 6b), and the worker observing the
	// command (or its echo) is then guaranteed to see the new configuration.
	if r.hasCmd && w.Color == r.cmd {
		target, pos := DecodeCommand(w.Data)
		te := r.entries[target]
		switch {
		case te != nil && pos == TogglePosition:
			te.pos ^= 1
		case te != nil && pos <= 1:
			te.pos = pos
		default:
			r.fail(fmt.Errorf("fabric: PE(%d,%d) switch command for unknown color %d / position %d", r.pe.X, r.pe.Y, target, pos))
			return
		}
		r.C.Commands.Add(1)
	}
	for _, out := range rule.out[from] {
		switch {
		case out == PortRamp:
			if from != PortRamp {
				r.C.DeliveredToPE.Add(1)
			}
			r.pe.deliver(w)
			continue
		case from == PortRamp:
			r.C.SentFromRamp.Add(1)
		default:
			r.C.Forwarded.Add(1)
		}
		r.pe.nbr[out].rt.route(w, out.Opposite(), hops+1)
	}
}

func (r *router) fail(err error) {
	if r.routeErr == nil {
		r.routeErr = err
	}
}
