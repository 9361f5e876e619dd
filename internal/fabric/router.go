package fabric

import "fmt"

// RouterCounters holds a router's traffic. Routing writes them under the
// fabric mutex; read them after Run, or under that mutex.
type RouterCounters struct {
	DeliveredToPE uint64 // link → ramp
	DroppedAtStop uint64 // wavelets left unread in the inbox when Run returned
}

// router is one PE's five-port router: a switch, not a thread, holding the
// static routes of the §5.2 exchange. A color flows ramp→link on its sender
// and link→ramp on its receiver; the exchange's corners are relayed by the
// worker, so a wavelet crosses exactly one link. Routes are installed
// before the fabric runs; wavelets pass through inside the sender's
// PE.SendColumn.
type router struct {
	pe *PE
	// out[c][from] is the port a wavelet of color c arriving on from leaves
	// by; NumPorts, what newRouter installs, means no route.
	out      [MaxColors][NumPorts]Port
	C        RouterCounters
	routeErr error
}

// newRouter returns pe's router with no routes.
func newRouter(pe *PE) *router {
	r := &router{pe: pe}
	for c := range r.out {
		for p := range r.out[c] {
			r.out[c][p] = NumPorts
		}
	}
	return r
}

// SetRoute routes color c from port from to port to: ramp→link on a sender,
// link→ramp on a receiver. It may only be called before the fabric runs.
func (r *router) SetRoute(c Color, from, to Port) error {
	if c >= MaxColors {
		return fmt.Errorf("fabric: color %d out of range (max %d)", c, MaxColors-1)
	}
	if from >= NumPorts || to >= NumPorts {
		return fmt.Errorf("fabric: invalid route %v→%v", from, to)
	}
	if (from == PortRamp) == (to == PortRamp) {
		return fmt.Errorf("fabric: PE(%d,%d) route %v→%v is neither ramp→link nor link→ramp", r.pe.X, r.pe.Y, from, to)
	}
	if link := min(from, to); !r.pe.HasNeighbor(link) { // PortRamp is the largest port
		return fmt.Errorf("fabric: PE(%d,%d) route %v→%v crosses the fabric edge", r.pe.X, r.pe.Y, from, to)
	}
	r.out[c][from] = to
	return nil
}

// hop returns the PE that receives color c sent from this router's ramp,
// with the fabric mutex held: this router must route c out of a link, and
// the neighbor there must route c from the arrival port to its ramp. A
// missing route is a routing error recorded on the PE that lacks it (Run
// reports it); hop then returns nil and the wavelets are dropped.
func (r *router) hop(c Color) *PE {
	if c >= MaxColors {
		r.fail(fmt.Errorf("fabric: PE(%d,%d) sent wavelet with invalid color %d", r.pe.X, r.pe.Y, c))
		return nil
	}
	out := r.out[c][PortRamp]
	if out == NumPorts {
		r.fail(fmt.Errorf("fabric: PE(%d,%d) has no route for color %d from %v", r.pe.X, r.pe.Y, c, PortRamp))
		return nil
	}
	dst := r.pe.nbr[out]
	if in := out.Opposite(); dst.rt.out[c][in] != PortRamp {
		dst.rt.fail(fmt.Errorf("fabric: PE(%d,%d) has no route for color %d from %v", dst.X, dst.Y, c, in))
		return nil
	}
	return dst
}

func (r *router) fail(err error) {
	if r.routeErr == nil {
		r.routeErr = err
	}
}
