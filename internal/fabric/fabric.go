package fabric

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dsd"
)

// Config sizes a fabric: its PE grid and each PE's memory. Routing is
// synchronous (see PE.SendColumn), so there is nothing in flight to buffer.
type Config struct {
	Width, Height int
	// MemWords is each PE's private memory capacity in float32 words
	// (WSE-2: 12288 words = 48 KiB).
	MemWords int
}

func (c Config) validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("fabric: dimensions must be positive, got %dx%d", c.Width, c.Height)
	}
	if c.MemWords <= 0 {
		return fmt.Errorf("fabric: PE memory must be positive, got %d words", c.MemWords)
	}
	return nil
}

// PE is one processing element: coordinates, private memory and vector
// engine, its router, its four fabric neighbors and the inbox its ramp
// delivers into. Worker programs run with exclusive access to Mem/Eng;
// routing never touches them.
type PE struct {
	X, Y int
	Mem  *dsd.Memory
	Eng  *dsd.Engine

	fab *Fabric
	rt  *router
	nbr [4]*PE // indexed by port; nil at the fabric edge

	// inbox[head:] holds the delivered, unread wavelets; both reset when it
	// drains, so a steady-state run appends into the same backing array.
	inbox   []Wavelet
	head    int
	wake    sync.Cond // on fab.mu; signalled when a waker un-counts the worker
	waiting bool      // the worker is parked in Recv and counted as blocked
}

// HasNeighbor reports whether a fabric neighbor exists on port p.
func (pe *PE) HasNeighbor(p Port) bool { return p < PortRamp && pe.nbr[p] != nil }

// SendColumn emits a whole float32 column as consecutive wavelets of one
// color — the paper's "local block of data of length Nz × 2" per direction —
// from the worker onto the ramp, and delivers them in the caller's
// goroutine: the route lookup on both ends of the link and the append to
// the receiver's inbox happen before SendColumn returns. The fabric mutex,
// held once per column, makes the send atomic, so a run is one legal
// schedule of an asynchronous fabric, with per-link FIFO order.
func (pe *PE) SendColumn(c Color, vals []float32) {
	pe.fab.mu.Lock()
	defer pe.fab.mu.Unlock()
	dst := pe.rt.hop(c)
	if dst == nil {
		return
	}
	for _, v := range vals {
		dst.inbox = append(dst.inbox, FromF32(c, v))
	}
	dst.rt.C.DeliveredToPE += uint64(len(vals))
	dst.unpark()
}

// ErrDeadlock reports a worker that waited while every other live worker
// waited too: with synchronous routing nothing is in flight, so nothing can
// ever wake it — in a correct protocol this means a lost or misrouted
// wavelet, or a worker that returned early.
var ErrDeadlock = errors.New("fabric: deadlock")

// Recv returns the next wavelet delivered to this PE's ramp, waiting for one
// if the inbox is empty. It returns an error wrapping ErrDeadlock, naming
// this PE, once every live worker of the fabric waits.
func (pe *PE) Recv() (Wavelet, error) {
	pe.fab.mu.Lock()
	defer pe.fab.mu.Unlock()
	for pe.head == len(pe.inbox) {
		if err := pe.park(); err != nil {
			return Wavelet{}, err
		}
	}
	w := pe.inbox[pe.head]
	pe.head++
	if pe.head == len(pe.inbox) {
		pe.inbox, pe.head = pe.inbox[:0], 0
	}
	return w, nil
}

// park counts the worker as blocked and waits, with fab.mu held, until a
// waker un-counts it (unpark) or the fabric is deadlocked.
func (pe *PE) park() error {
	f := pe.fab
	pe.waiting = true
	f.blocked++
	f.checkDeadlock()
	for pe.waiting && !f.deadlocked {
		pe.wake.Wait()
	}
	if !pe.waiting {
		return nil
	}
	pe.waiting = false
	f.blocked--
	return fmt.Errorf("%w: PE(%d,%d) waits in Recv while every live worker waits", ErrDeadlock, pe.X, pe.Y)
}

// unpark un-counts a parked worker and wakes it. The waker does the
// un-counting, not the woken worker when it next runs: otherwise a woken
// worker that has not run yet would still count as blocked, and the others
// blocking meanwhile would look like a deadlock.
func (pe *PE) unpark() {
	if pe.waiting {
		pe.waiting = false
		pe.fab.blocked--
		pe.wake.Signal()
	}
}

// Fabric is the W×H mesh of PEs.
type Fabric struct {
	pes []*PE

	// mu serializes routing, the inboxes and the counts below.
	mu         sync.Mutex
	live       int // workers of the current Run that have not returned
	blocked    int // workers parked in Recv
	deadlocked bool
	ran        bool
}

// ErrRunTwice reports a second call to Fabric.Run.
var ErrRunTwice = errors.New("fabric: Run called twice on one fabric")

// New builds a fabric without routes; callers install them on each PE
// (InstallExchange), then call Run.
func New(cfg Config) (*Fabric, error) {
	if cfg.MemWords == 0 {
		cfg.MemWords = 12288
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Fabric{pes: make([]*PE, cfg.Width*cfg.Height)}
	// One contiguous arena for every PE memory, so the fabric's working set
	// is one allocation instead of W·H.
	mems, err := dsd.NewArena(cfg.Width*cfg.Height, cfg.MemWords)
	if err != nil {
		return nil, err
	}
	for i := range f.pes {
		pe := &PE{X: i % cfg.Width, Y: i / cfg.Width, Mem: &mems[i], fab: f}
		pe.Eng = dsd.NewEngine(pe.Mem)
		pe.rt = newRouter(pe)
		pe.wake.L = &f.mu
		f.pes[i] = pe
		// Link to the western and northern neighbors, built already.
		if pe.X > 0 {
			pe.nbr[PortWest], f.pes[i-1].nbr[PortEast] = f.pes[i-1], pe
		}
		if pe.Y > 0 {
			pe.nbr[PortNorth], f.pes[i-cfg.Width].nbr[PortSouth] = f.pes[i-cfg.Width], pe
		}
	}
	return f, nil
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

// checkDeadlock, called with mu held whenever a worker parks or returns,
// wakes every parked worker into ErrDeadlock once all live workers wait.
func (f *Fabric) checkDeadlock() {
	if f.blocked == 0 || f.blocked < f.live || f.deadlocked {
		return
	}
	f.deadlocked = true
	for _, pe := range f.pes {
		pe.wake.Signal()
	}
}

// Run executes program on one worker goroutine per PE, waits for all of
// them and returns the combined worker and routing errors. Wavelets still
// unread in an inbox at the end are counted as DroppedAtStop. Run may be
// called once per Fabric; a second call returns ErrRunTwice.
func (f *Fabric) Run(program func(pe *PE) error) error {
	f.mu.Lock()
	if f.ran {
		f.mu.Unlock()
		return ErrRunTwice
	}
	f.ran, f.live, f.deadlocked = true, len(f.pes), false
	f.mu.Unlock()

	errs := make([]error, len(f.pes))
	var workers sync.WaitGroup
	for i, pe := range f.pes {
		workers.Add(1)
		go func() {
			defer workers.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("fabric: PE(%d,%d) worker panicked: %v", pe.X, pe.Y, r)
				}
				f.mu.Lock()
				f.live--
				f.checkDeadlock()
				f.mu.Unlock()
			}()
			errs[i] = program(pe)
		}()
	}
	workers.Wait()

	var all []error
	for _, err := range errs {
		if err != nil {
			all = append(all, err)
		}
	}
	if len(all) > 8 { // cap the error avalanche; the first few tell the story
		all = append(all[:8], fmt.Errorf("fabric: ... %d more worker errors suppressed", len(all)-8))
	}
	for _, pe := range f.pes {
		pe.rt.C.DroppedAtStop = uint64(len(pe.inbox) - pe.head)
		if pe.rt.routeErr != nil && len(all) < 16 {
			all = append(all, pe.rt.routeErr)
		}
	}
	return errors.Join(all...)
}

// TotalCounters sums the router counters a run reports across the fabric.
type TotalCounters struct {
	DeliveredToPE, DroppedAtStop uint64
}

// Totals aggregates the reported router counters (call after Run).
func (f *Fabric) Totals() TotalCounters {
	var t TotalCounters
	for _, pe := range f.pes {
		t.DeliveredToPE += pe.rt.C.DeliveredToPE
		t.DroppedAtStop += pe.rt.C.DroppedAtStop
	}
	return t
}
