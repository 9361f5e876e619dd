package fabric

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dsd"
)

// Config sizes a fabric: its PE grid and each PE's memory. Routing is
// synchronous (see PE.Send), so there is nothing in flight to buffer.
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
	inbox []Wavelet
	head  int
	wake  sync.Cond // on fab.mu; signalled when a waker un-counts the worker
	wait  waitKind  // what the parked worker waits for, or running
}

// waitKind names what a worker counted as blocked waits for.
type waitKind uint8

const (
	running waitKind = iota
	inRecv
	inBarrier
)

var waitNames = [...]string{inRecv: "Recv", inBarrier: "a barrier"}

// HasNeighbor reports whether a fabric neighbor exists on port p.
func (pe *PE) HasNeighbor(p Port) bool { return p < PortRamp && pe.nbr[p] != nil }

// Router exposes the PE's router for route configuration (before Run) and
// for counter/position inspection (after).
func (pe *PE) Router() *router { return pe.rt }

// Send emits one wavelet from the worker onto the ramp and routes it to
// completion in the caller's goroutine: every hop, switch command and
// delivery happens before Send returns. The fabric mutex makes each send
// atomic, so a run is one legal schedule of an asynchronous fabric, with
// per-link FIFO order and commands applied in the order they were sent.
func (pe *PE) Send(w Wavelet) {
	pe.fab.mu.Lock()
	defer pe.fab.mu.Unlock()
	pe.rt.route(w, PortRamp, 0)
}

// SendColumn emits a whole float32 column as consecutive wavelets of one
// color — the paper's "local block of data of length Nz × 2" per direction —
// under one acquisition of the fabric mutex.
func (pe *PE) SendColumn(c Color, vals []float32) {
	pe.fab.mu.Lock()
	defer pe.fab.mu.Unlock()
	for _, v := range vals {
		pe.rt.route(FromF32(c, v), PortRamp, 0)
	}
}

// deliver appends w to the inbox and wakes the worker if it waits in Recv.
func (pe *PE) deliver(w Wavelet) {
	pe.inbox = append(pe.inbox, w)
	pe.unpark(inRecv)
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
		if err := pe.park(inRecv); err != nil {
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

// park counts the worker as blocked on k and waits, with fab.mu held, until
// a waker un-counts it (unpark) or the fabric is deadlocked.
func (pe *PE) park(k waitKind) error {
	f := pe.fab
	pe.wait = k
	f.blocked++
	f.checkDeadlock()
	for pe.wait != running && !f.deadlocked {
		pe.wake.Wait()
	}
	if pe.wait == running {
		return nil
	}
	pe.wait = running
	f.blocked--
	return fmt.Errorf("%w: PE(%d,%d) waits in %s while every live worker waits", ErrDeadlock, pe.X, pe.Y, waitNames[k])
}

// unpark un-counts a worker parked on k and wakes it. The waker does the
// un-counting, not the woken worker when it next runs: otherwise a woken
// worker that has not run yet would still count as blocked, and the others
// blocking meanwhile would look like a deadlock.
func (pe *PE) unpark(k waitKind) {
	if pe.wait == k {
		pe.wait = running
		pe.fab.blocked--
		pe.wake.Signal()
	}
}

// Fabric is the W×H mesh of PEs.
type Fabric struct {
	cfg Config
	pes []*PE

	// mu serializes routing, the inboxes, the barrier and the counts below.
	mu         sync.Mutex
	live       int // workers of the current Run that have not returned
	blocked    int // workers parked in Recv or a barrier
	deadlocked bool
	ran        bool
}

// ErrRunTwice reports a second call to Fabric.Run.
var ErrRunTwice = errors.New("fabric: Run called twice on one fabric")

// New builds a fabric with unconnected routes; callers install routes on
// each PE's router, then call Run.
func New(cfg Config) (*Fabric, error) {
	if cfg.MemWords == 0 {
		cfg.MemWords = 12288
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Fabric{cfg: cfg}
	f.pes = make([]*PE, cfg.Width*cfg.Height)
	// One contiguous arena for every PE memory, so the fabric's working set
	// is one allocation instead of W·H.
	mems, err := dsd.NewArena(cfg.Width*cfg.Height, cfg.MemWords)
	if err != nil {
		return nil, err
	}
	for i := range f.pes {
		pe := &PE{X: i % cfg.Width, Y: i / cfg.Width, Mem: &mems[i], fab: f}
		pe.Eng = dsd.NewEngine(pe.Mem)
		pe.rt = &router{pe: pe}
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
		pe.rt.C.DroppedAtStop.Add(uint64(len(pe.inbox) - pe.head))
		if pe.rt.routeErr != nil && len(all) < 16 {
			all = append(all, pe.rt.routeErr)
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
