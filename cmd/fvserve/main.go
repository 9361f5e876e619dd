// Command fvserve is the resident-engine serving daemon: a long-running
// HTTP/JSON front end over the partitioned unstructured implicit solver
// (internal/serve). Compiled engines stay resident behind a scenario cache,
// so repeat requests skip plan compilation — mesh build, RCB, halo plans,
// CSR interleave, phase programs, preconditioner setup — and pay only
// queue + solve + render. Admission control (token bucket + bounded queue)
// sheds overload with 429s; SIGTERM/SIGINT drains gracefully: in-flight
// requests complete, new ones get 503, then the engines are released.
// -deadline bounds every solve that carries no deadline_ms of its own
// (expired solves stop at the next Krylov iteration boundary and answer
// 504); -drain-timeout bounds the shutdown drain, force-cancelling whatever
// is still solving past it so a wedged request cannot hang the exit.
//
// Usage:
//
//	fvserve -addr :8080 -cache 4 -engines 2 -queue 64 -rate 40
//	fvserve -addr :8080 -deadline 30s -drain-timeout 10s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/-help: usage already printed, exit clean
		}
		fmt.Fprintln(os.Stderr, "fvserve:", err)
		os.Exit(1)
	}
}

// run executes the tool with explicit argv and streams — the testable entry
// the table-driven CLI tests drive.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fvserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		cacheCap = fs.Int("cache", serve.DefaultCacheCapacity, "resident scenario cache capacity (LRU beyond it)")
		engines  = fs.Int("engines", 2, "resident engines per scenario (the lowest idle one pulls the next batch)")
		queue    = fs.Int("queue", serve.DefaultQueueDepth, "admitted-job bound; requests beyond it get 429")
		rate     = fs.Float64("rate", 0, "admission rate limit [req/s], token bucket (0 = off)")
		burst    = fs.Int("burst", 0, "token-bucket burst (default: the queue depth)")
		batch    = fs.Int("batch", serve.DefaultBatchMax, "max same-scenario requests an engine pulls from the backlog as one batch")
		maxCells = fs.Int("max-cells", serve.DefaultMaxCells, "largest admissible scenario in cells (<=0 disables)")
		memoCap  = fs.Int("memo", serve.DefaultMemoCapacity, "result-memo capacity, completed responses by (scenario, payload) (<=0 disables)")
		deadline = fs.Duration("deadline", 0, "default solve deadline; requests past it answer 504 (0 = unbounded)")
		drainTO  = fs.Duration("drain-timeout", 0, "shutdown drain bound; in-flight solves past it are force-cancelled (0 = wait forever)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheCap < 1 {
		return fmt.Errorf("-cache must be positive, got %d", *cacheCap)
	}
	if *engines < 1 {
		return fmt.Errorf("-engines must be positive, got %d", *engines)
	}
	if *queue < 1 {
		return fmt.Errorf("-queue must be positive, got %d", *queue)
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be positive, got %d", *batch)
	}
	if *rate < 0 {
		return fmt.Errorf("-rate must be non-negative, got %g", *rate)
	}
	if *burst < 0 {
		return fmt.Errorf("-burst must be non-negative, got %d", *burst)
	}
	if *deadline < 0 {
		return fmt.Errorf("-deadline must be non-negative, got %v", *deadline)
	}
	if *drainTO < 0 {
		return fmt.Errorf("-drain-timeout must be non-negative, got %v", *drainTO)
	}
	opts := serve.Options{
		CacheCapacity:      *cacheCap,
		EnginesPerScenario: *engines,
		QueueDepth:         *queue,
		RatePerSec:         *rate,
		Burst:              *burst,
		BatchMax:           *batch,
		MaxCells:           *maxCells,
		MemoCapacity:       *memoCap,
		DefaultDeadline:    *deadline,
	}
	if *maxCells <= 0 {
		opts.MaxCells = -1
	}
	if *memoCap <= 0 {
		opts.MemoCapacity = -1
	}
	return serveDaemon(*addr, opts, *drainTO, stdout)
}

// serveDaemon runs the HTTP server until SIGTERM/SIGINT, then drains: the
// listener closes, in-flight requests run to completion, late requests get
// 503, and the resident engines are released. A positive drainTimeout
// bounds the drain — solves still running past it are force-cancelled at
// their next iteration boundary, so a wedged solve cannot hang shutdown.
func serveDaemon(addr string, opts serve.Options, drainTimeout time.Duration, stdout io.Writer) error {
	s := serve.New(opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "fvserve: listening on %s (cache %d, engines/scenario %d, queue %d)\n",
		ln.Addr(), opts.CacheCapacity, opts.EnginesPerScenario, opts.QueueDepth)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills immediately
	fmt.Fprintln(stdout, "fvserve: draining (in-flight requests complete, new ones get 503)")
	drained := make(chan struct{})
	go func() {
		s.DrainWithin(drainTimeout)
		close(drained)
	}()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = hs.Shutdown(shutdownCtx)
	<-drained
	st := s.Stats()
	fmt.Fprintf(stdout, "fvserve: drained — %d requests, %d completed, cache %d hit / %d miss\n",
		st.Requests, st.Completed, st.CacheHits, st.CacheMisses)
	return nil
}
