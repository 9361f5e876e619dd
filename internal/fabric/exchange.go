package fabric

import "fmt"

// This file owns the paper's §5.2 neighborhood exchange (Fig. 5): every
// round each PE sends one fixed-width float32 payload to its four cardinal
// neighbors directly, and every cardinal payload that arrives is forwarded
// once more, turned 90° clockwise, so the four corners are reached through a
// cardinal intermediary without diagonal links. One color per (arrival
// port, hop kind) lets the receiver decode the sender from the color alone,
// so the routes are static. The flux engine (internal/core, 2·Nz-word
// columns) and the §8 wave engine (internal/wave, one word) are its clients.

// Origin names the neighbor a payload came from, as seen by the receiver:
// the four cardinal neighbors in port order, then the corner whose payload
// is relayed over that same port (north → NW, east → NE, south → SE,
// west → SW). A payload's color is the exchange's base color plus its
// Origin.
type Origin uint8

const (
	FromNorth Origin = iota
	FromEast
	FromSouth
	FromWest
	FromNorthWest
	FromNorthEast
	FromSouthEast
	FromSouthWest
	NumOrigins
)

// port returns the port payloads of origin o arrive on.
func (o Origin) port() Port { return Port(o % 4) }

// relayed reports whether o is a corner, reached through an intermediary.
func (o Origin) relayed() bool { return o >= FromNorthWest }

// InstallExchange configures a PE's static routes for an exchange on colors
// base … base+NumOrigins−1: a cardinal color flows ramp→link on the sender
// and link→ramp on the receiver; a diagonal color flows ramp→link on the
// clockwise-turning intermediary and link→ramp at the final receiver.
func InstallExchange(pe *PE, base Color, diagonals bool) error {
	if int(base)+int(NumOrigins) > MaxColors {
		return fmt.Errorf("fabric: exchange base color %d leaves no room for %d colors (max %d)", base, NumOrigins, MaxColors)
	}
	for o := Origin(0); o < NumOrigins && (diagonals || !o.relayed()); o++ {
		c, p := base+Color(o), o.port()
		// Last hop: the payload arrives on p.
		if pe.HasNeighbor(p) {
			if err := pe.rt.SetRoute(c, 0, p, PortRamp); err != nil {
				return err
			}
		}
		// First hop (cardinal) or turn (diagonal): out of the opposite port,
		// so that the neighbor there sees it arrive on p.
		if out := p.Opposite(); pe.HasNeighbor(out) {
			if err := pe.rt.SetRoute(c, 0, PortRamp, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// Exchange is one PE's end of the protocol, used by its worker only. Every
// PE of the fabric must run the same number of Send + Collect rounds with
// the same width.
type Exchange struct {
	pe        *PE
	base      Color
	width     int
	diagonals bool
	streams   [NumOrigins]stream
}

// stream reassembles one origin's payloads. Neighbors finish their rounds
// independently and may run one round ahead, so a stream holds up to one
// extra payload of next-round data; the consumed prefix is dropped and the
// remainder carries over.
type stream struct {
	expected bool
	done     bool // this round's payload already delivered
	buf      []float32
}

// NewExchange returns the PE's exchange of width-word payloads on the
// colors InstallExchange was given.
func NewExchange(pe *PE, base Color, width int, diagonals bool) *Exchange {
	e := &Exchange{pe: pe, base: base, width: width, diagonals: diagonals}
	for o := range e.streams {
		if e.Expects(Origin(o)) {
			e.streams[o] = stream{expected: true, buf: make([]float32, 0, 2*width)}
		}
	}
	return e
}

// Expects reports whether a payload from origin o arrives each round: the
// neighbor must exist, and a corner is reached only with diagonals on and
// both cardinal neighbors around it present.
func (e *Exchange) Expects(o Origin) bool {
	if o >= NumOrigins || !e.pe.HasNeighbor(o.port()) {
		return false
	}
	return !o.relayed() || e.diagonals && e.pe.HasNeighbor(o.port().ClockwiseTurn())
}

// Send starts a round: the own payload goes to every cardinal neighbor. The
// caller may compute on local data between Send and Collect (§5.3.2).
func (e *Exchange) Send(own []float32) {
	if len(own) != e.width {
		panic(fmt.Sprintf("fabric: PE(%d,%d) exchange sends %d words, want %d", e.pe.X, e.pe.Y, len(own), e.width))
	}
	for _, p := range LinkPorts {
		if e.pe.HasNeighbor(p) {
			e.pe.SendColumn(e.base+Color(p.Opposite()), own)
		}
	}
}

// Collect finishes a round: it hands deliver each expected origin's payload
// exactly once, as soon as it is complete — payloads buffered during the
// previous round first, in Origin order, then in arrival order — forwarding
// every cardinal payload clockwise on the way. The slice is valid only
// during the call. A color outside the exchange or from an origin the PE
// does not expect, a neighbor more than one round ahead, and a receive
// timeout are errors.
func (e *Exchange) Collect(deliver func(Origin, []float32) error) error {
	remaining := 0
	for o := range e.streams {
		st := &e.streams[o]
		if !st.expected {
			continue
		}
		st.done = false
		if len(st.buf) < e.width {
			remaining++
		} else if err := e.consume(Origin(o), deliver); err != nil {
			return err
		}
	}
	for remaining > 0 {
		w, err := e.pe.Recv()
		if err != nil {
			return err
		}
		o := int(w.Color) - int(e.base)
		if o < 0 || o >= int(NumOrigins) || !e.streams[o].expected {
			return fmt.Errorf("fabric: PE(%d,%d) exchange: unexpected color %d", e.pe.X, e.pe.Y, w.Color)
		}
		st := &e.streams[o]
		if len(st.buf) >= 2*e.width || st.done && len(st.buf) >= e.width {
			return fmt.Errorf("fabric: PE(%d,%d) exchange: color %d overran two rounds", e.pe.X, e.pe.Y, w.Color)
		}
		st.buf = append(st.buf, w.F32())
		if st.done || len(st.buf) < e.width {
			continue
		}
		if err := e.consume(Origin(o), deliver); err != nil {
			return err
		}
		remaining--
	}
	return nil
}

// consume takes the current round's payload off a stream: forward it
// clockwise (intermediary duty, §5.2.2 — it reaches the neighbor behind the
// turned port as that neighbor's corner), then deliver it.
func (e *Exchange) consume(o Origin, deliver func(Origin, []float32) error) error {
	st := &e.streams[o]
	data := st.buf[:e.width]
	if e.diagonals && !o.relayed() {
		if t := o.port().ClockwiseTurn(); e.pe.HasNeighbor(t) {
			e.pe.SendColumn(e.base+Color(FromNorthWest)+Color(t.Opposite()), data)
		}
	}
	if err := deliver(o, data); err != nil {
		return err
	}
	st.buf = append(st.buf[:0], st.buf[e.width:]...)
	st.done = true
	return nil
}
