package fabric

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dsd"
)

// Config sizes a fabric. Buffer capacities are in wavelets; callers size
// them from their protocol's per-application traffic (the core engine uses
// ~8·Nz per link) so sends never block in a correct run.
type Config struct {
	Width, Height int
	// MemWords is each PE's private memory capacity in float32 words
	// (WSE-2: 12288 words = 48 KiB).
	MemWords int
	// LinkBuffer is the per-link channel capacity.
	LinkBuffer int
	// RampBuffer is the router→worker and worker→router channel capacity.
	RampBuffer int
	// RecvTimeout bounds a worker's Recv; it turns protocol deadlocks into
	// errors. Zero selects a generous default.
	RecvTimeout time.Duration
}

// DefaultRecvTimeout converts lost-wavelet hangs into test failures.
const DefaultRecvTimeout = 30 * time.Second

func (c Config) withDefaults() Config {
	if c.MemWords == 0 {
		c.MemWords = 12288
	}
	if c.LinkBuffer == 0 {
		c.LinkBuffer = 4096
	}
	if c.RampBuffer == 0 {
		c.RampBuffer = 8192
	}
	if c.RecvTimeout == 0 {
		c.RecvTimeout = DefaultRecvTimeout
	}
	return c
}

func (c Config) validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("fabric: dimensions must be positive, got %dx%d", c.Width, c.Height)
	}
	if c.LinkBuffer < 1 || c.RampBuffer < 1 {
		return fmt.Errorf("fabric: buffers must hold at least one wavelet")
	}
	if c.MemWords <= 0 {
		return fmt.Errorf("fabric: PE memory must be positive, got %d words", c.MemWords)
	}
	return nil
}

// PE is one processing element: coordinates, private memory and vector
// engine, the worker-facing ramp, and its router. Worker programs run with
// exclusive access to Mem/Eng; the router goroutine never touches them.
type PE struct {
	X, Y int
	Mem  *dsd.Memory
	Eng  *dsd.Engine

	fab     *Fabric
	rt      *router
	in      [4]chan Wavelet // indexed by the local port the data arrives on
	out     [4]chan Wavelet // indexed by the local port the data leaves on
	rampIn  chan Wavelet
	rampOut chan Wavelet
}

// link returns the outgoing channel for a fabric port (nil at the edge).
func (pe *PE) link(p Port) chan Wavelet {
	if p >= PortRamp {
		return nil
	}
	return pe.out[p]
}

// HasNeighbor reports whether a fabric neighbor exists on port p.
func (pe *PE) HasNeighbor(p Port) bool { return p < PortRamp && pe.out[p] != nil }

// Router exposes the PE's router for route configuration (before Run) and
// for counter/position inspection (after).
func (pe *PE) Router() *router { return pe.rt }

// Send emits one wavelet from the worker onto the ramp; the router forwards
// it according to the wavelet color's active route.
func (pe *PE) Send(w Wavelet) { pe.rampOut <- w }

// SendColumn emits a whole float32 column as consecutive wavelets of one
// color — the paper's "local block of data of length Nz × 2" per direction.
func (pe *PE) SendColumn(c Color, vals []float32) {
	for _, v := range vals {
		pe.rampOut <- FromF32(c, v)
	}
}

// ErrRecvTimeout reports a worker receive that waited longer than the
// configured timeout — in a correct protocol this means a lost or misrouted
// wavelet.
var ErrRecvTimeout = errors.New("fabric: receive timed out")

// Recv returns the next wavelet delivered to this PE's ramp. A wavelet that
// is already there is taken without arming the timeout's timer.
func (pe *PE) Recv() (Wavelet, error) {
	select {
	case w := <-pe.rampIn:
		return w, nil
	default:
	}
	select {
	case w := <-pe.rampIn:
		return w, nil
	case <-time.After(pe.fab.cfg.RecvTimeout):
		return Wavelet{}, fmt.Errorf("%w: PE(%d,%d)", ErrRecvTimeout, pe.X, pe.Y)
	}
}

// Fabric is the W×H mesh of PEs.
type Fabric struct {
	cfg  Config
	pes  []*PE
	stop chan struct{}
}

// New builds a fabric with unconnected routes; callers install routes on
// each PE's router, then call Run.
func New(cfg Config) (*Fabric, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Fabric{cfg: cfg, stop: make(chan struct{})}
	f.pes = make([]*PE, cfg.Width*cfg.Height)
	// One contiguous arena for every PE memory, so the fabric's working set
	// is one allocation instead of W·H.
	mems, err := dsd.NewArena(cfg.Width*cfg.Height, cfg.MemWords)
	if err != nil {
		return nil, err
	}
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			mem := &mems[y*cfg.Width+x]
			pe := &PE{
				X: x, Y: y,
				Mem:     mem,
				fab:     f,
				rampIn:  make(chan Wavelet, cfg.RampBuffer),
				rampOut: make(chan Wavelet, cfg.RampBuffer),
			}
			pe.Eng = dsd.NewEngine(mem)
			pe.rt = &router{pe: pe}
			f.pes[y*cfg.Width+x] = pe
		}
	}
	// Wire links: the out-channel of a PE on port p is the in-channel of the
	// neighbor on the opposite port.
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			pe := f.PE(x, y)
			if x+1 < cfg.Width {
				ch := make(chan Wavelet, cfg.LinkBuffer)
				pe.out[PortEast] = ch
				f.PE(x+1, y).in[PortWest] = ch
			}
			if y+1 < cfg.Height {
				ch := make(chan Wavelet, cfg.LinkBuffer)
				pe.out[PortSouth] = ch
				f.PE(x, y+1).in[PortNorth] = ch
			}
			if x > 0 {
				ch := make(chan Wavelet, cfg.LinkBuffer)
				pe.out[PortWest] = ch
				f.PE(x-1, y).in[PortEast] = ch
			}
			if y > 0 {
				ch := make(chan Wavelet, cfg.LinkBuffer)
				pe.out[PortNorth] = ch
				f.PE(x, y-1).in[PortSouth] = ch
			}
		}
	}
	return f, nil
}

// Width returns the fabric width in PEs.
func (f *Fabric) Width() int { return f.cfg.Width }

// Height returns the fabric height in PEs.
func (f *Fabric) Height() int { return f.cfg.Height }

// PE returns the processing element at (x, y).
func (f *Fabric) PE(x, y int) *PE {
	if x < 0 || x >= f.cfg.Width || y < 0 || y >= f.cfg.Height {
		panic(fmt.Sprintf("fabric: PE(%d,%d) outside %dx%d fabric", x, y, f.cfg.Width, f.cfg.Height))
	}
	return f.pes[y*f.cfg.Width+x]
}

// ForEachPE visits every PE in row-major order (host-side setup).
func (f *Fabric) ForEachPE(fn func(pe *PE) error) error {
	for _, pe := range f.pes {
		if err := fn(pe); err != nil {
			return err
		}
	}
	return nil
}

// Run starts every router, executes program on every PE's worker goroutine,
// waits for all workers, then stops the routers. It returns the combined
// worker and routing errors. Run may be called once per Fabric.
func (f *Fabric) Run(program func(pe *PE) error) error {
	var routers sync.WaitGroup
	for _, pe := range f.pes {
		routers.Add(1)
		go func(pe *PE) {
			defer routers.Done()
			pe.rt.run(f.stop)
		}(pe)
	}

	errs := make([]error, len(f.pes))
	var workers sync.WaitGroup
	for i, pe := range f.pes {
		workers.Add(1)
		go func(i int, pe *PE) {
			defer workers.Done()
			defer close(pe.rampOut)
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("fabric: PE(%d,%d) worker panicked: %v", pe.X, pe.Y, r)
				}
			}()
			errs[i] = program(pe)
		}(i, pe)
	}
	workers.Wait()
	close(f.stop)
	routers.Wait()

	var all []error
	for i, err := range errs {
		if err != nil {
			all = append(all, err)
			if len(all) >= 8 { // cap the error avalanche; the first few tell the story
				all = append(all, fmt.Errorf("fabric: ... %d more worker errors suppressed", len(f.pes)-i))
				break
			}
		}
	}
	for _, pe := range f.pes {
		if pe.rt.routeErr != nil {
			all = append(all, pe.rt.routeErr)
			if len(all) >= 16 {
				break
			}
		}
	}
	return errors.Join(all...)
}

// TotalCounters sums router counters across the fabric.
type TotalCounters struct {
	SentFromRamp, DeliveredToPE, Forwarded, Commands, DroppedAtStop uint64
}

// Totals aggregates all router counters (call after Run).
func (f *Fabric) Totals() TotalCounters {
	var t TotalCounters
	for _, pe := range f.pes {
		t.SentFromRamp += pe.rt.C.SentFromRamp.Load()
		t.DeliveredToPE += pe.rt.C.DeliveredToPE.Load()
		t.Forwarded += pe.rt.C.Forwarded.Load()
		t.Commands += pe.rt.C.Commands.Load()
		t.DroppedAtStop += pe.rt.C.DroppedAtStop.Load()
	}
	return t
}

// EngineCounters sums the dsd vector-engine counters across all PEs.
func (f *Fabric) EngineCounters() dsd.Counters {
	var c dsd.Counters
	for _, pe := range f.pes {
		pe.Eng.AddCounters(&c)
	}
	return c
}
