// Command psad is the analysis daemon: an HTTP front end that accepts
// cobegin programs plus run options as JSON and executes them through
// one process-wide worker pool (internal/service).
//
// Usage:
//
//	psad [flags]
//
//	  -addr :8723     listen address
//	  -workers N      worker goroutines per run (0/1 sequential, <0 GOMAXPROCS)
//	  -sched leveled  parallel scheduler: leveled or dep
//	  -drain 10s      graceful-shutdown drain budget
//	  -max-body N     request body cap in bytes
//	  -cache-max N    completed-result cache bound (LRU; <0 unbounded)
//
// Endpoints:
//
//	POST /analyze  submit {"program": ..., "analysis": ..., "options": ...}
//	GET  /healthz  liveness probe
//	GET  /metrics  service stats + aggregated engine counters
//
// Identical concurrent submissions (same program, same result-relevant
// options) coalesce onto one engine run; completed results are cached
// under the same key, bounded by -cache-max with least-recently-used
// eviction (the cache_evictions counter in /metrics tracks drops). For
// abstract requests "same program" means the same canonical program
// hash (the response's program_hash): an α-renamed, relabelled, or
// reformatted resubmission is served from the cache. Explore requests
// are keyed on their exact text. Worker count and scheduler are
// server-side configuration: by the engines' determinism contract they
// never change results, so responses are bit-identical to cmd/psa's
// summaries for the same program and options at any -workers setting.
//
// The request field "base" (the program_hash of a previous version) is
// accepted and ignored; /metrics counts abstract runs that carried it
// as incremental_runs.
//
// Shutdown: on SIGINT/SIGTERM the daemon stops accepting connections
// and drains in-flight requests for -drain; runs still going after the
// budget are cancelled and return coherent partial results (cancelled
// flag set). A client disconnecting mid-run cancels that run as soon as
// no other request is coalesced onto it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"psa/internal/sched"
	"psa/internal/service"
)

func main() {
	os.Exit(run())
}

// run carries the exit code so deferred cleanup (service close, pool
// drain) executes on every path; main is the only caller of os.Exit.
func run() int {
	var (
		addr     = flag.String("addr", ":8723", "listen address")
		workers  = flag.Int("workers", 0, "worker goroutines per analysis run (0/1 sequential, <0 GOMAXPROCS); results are identical at any count")
		schedMd  = flag.String("sched", "leveled", "parallel scheduler: leveled or dep; results are identical in either mode")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget before in-flight runs are cancelled")
		maxBody  = flag.Int64("max-body", 1<<20, "request body cap in bytes")
		cacheMax = flag.Int("cache-max", 1024, "max completed results cached (LRU eviction; negative = unbounded)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: psad [flags]")
		flag.PrintDefaults()
		return 2
	}
	schedSel, ok := sched.ParseScheduler(*schedMd)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scheduler %q (leveled|dep)\n", *schedMd)
		return 2
	}

	svc := service.New(service.Config{Workers: *workers, Sched: schedSel, MaxBody: *maxBody, CacheMax: *cacheMax})
	defer svc.Close()

	// Listen before forking the serve goroutine so the real bound
	// address is known (and printable) even for ":0" test listeners.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psad:", err)
		return 1
	}
	srv := &http.Server{Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "psad: listening on %s (workers=%d sched=%s)\n", ln.Addr(), *workers, schedSel)

	select {
	case err := <-errc:
		// Listener failed before any shutdown was requested.
		fmt.Fprintln(os.Stderr, "psad:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight requests finish
	// within the budget, then cancel whatever is still running (those
	// requests get coherent partial results with the cancelled flag).
	fmt.Fprintln(os.Stderr, "psad: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		svc.Close() // cancels in-flight runs; handlers now complete
		if err := srv.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "psad: shutdown:", err)
			return 1
		}
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "psad:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "psad: drained")
	return 0
}
