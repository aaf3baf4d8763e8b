// Command agreed serves the agreement simulator as a long-running HTTP
// daemon over the pooled trial engine (internal/service): clients POST
// scenarios to /run and get back the decision, window count, and safety
// verdicts — optionally a streamed NDJSON event trace with ?trace=1 — while
// named long-lived instances under /instances/{name} accumulate runs across
// requests and survive crashes through an append-only journal.
//
// The daemon is failure-first: admission is bounded (-workers executing,
// -queue waiting, everything else shed with 503 + Retry-After), every
// request runs under a cooperative deadline (-deadline, shortenable
// per-request), a panicking trial poisons its pooled engine and answers a
// structured 500, and scenarios that fault repeatedly are quarantined until
// restart. /healthz is liveness; /readyz reports the full serving posture
// (admission occupancy, quarantined scenarios, journal health) and flips to
// 503 the moment a drain starts or the journal degrades.
//
// With -journal, instance creates and successful runs append to a
// crash-safe JSONL journal (the checkpoint salvage format): a daemon killed
// mid-run — SIGKILL included — replays the verified prefix on restart and
// resumes byte-identically, discarding at most a torn final line.
//
// SIGINT/SIGTERM starts a graceful drain: stop admitting, finish in-flight
// requests (up to -drain-timeout), flush the journal, exit 0. A second
// signal, or an overrun drain, exits non-zero immediately.
//
// Usage:
//
//	agreed -addr :8080 -journal agreed.jsonl
//	agreed -addr 127.0.0.1:0 -workers 4 -queue 128 -deadline 10s
//	agreed -inject-panics 3,7       # chaos: panic the 4th and 8th requests
//
//	curl -s localhost:8080/run -d '{"algorithm":"core","n":12,"t":1,"seed":7}'
//	curl -s -X PUT localhost:8080/instances/exp1 -d '{"scenario":{"algorithm":"core","n":12,"t":1}}'
//	curl -s -X POST localhost:8080/instances/exp1/run
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
	"strings"
	"syscall"
	"time"

	"asyncagree/internal/faultinject"
	"asyncagree/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the testable daemon body: stdout receives the resolved listen
// address line (scripts and tests parse it for port-0 listens), everything
// else logs to stderr. It returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("agreed", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		journalPath  = fs.String("journal", "", "append-only instance journal path (empty: in-memory only)")
		workers      = fs.Int("workers", 0, "concurrently executing trials (0: GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "admission queue depth; arrivals beyond it are shed with 503")
		deadline     = fs.Duration("deadline", 30*time.Second, "per-request execution deadline")
		drainTimeout = fs.Duration("drain-timeout", 15*time.Second, "graceful-drain budget after SIGTERM/SIGINT")
		quarAfter    = fs.Int("quarantine-after", 3, "quarantine a scenario after this many consecutive faults (<0 disables)")
		injectPanics = fs.String("inject-panics", "", "chaos: explicit request indices whose trials panic (e.g. 0,5,9-12)")
		maxWindows   = fs.Int("max-windows", 20000, "default per-trial window budget")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The service swaps a non-positive count, depth, budget or deadline for
	// its default, and a negative drain budget would end a drain at once:
	// reject negatives here rather than serve on values nobody asked for.
	for _, f := range []struct {
		name string
		val  any
		neg  bool
	}{
		{"workers", *workers, *workers < 0},
		{"queue", *queue, *queue < 0},
		{"deadline", *deadline, *deadline < 0},
		{"drain-timeout", *drainTimeout, *drainTimeout < 0},
		{"max-windows", *maxWindows, *maxWindows < 0},
	} {
		if f.neg {
			fmt.Fprintf(os.Stderr, "agreed: %s must be >= 0, got %v\n", f.name, f.val)
			return 2
		}
	}

	var inject *faultinject.TrialSet
	if *injectPanics != "" {
		// rand:K@seed draws K indices from a known trial total; a daemon's
		// request stream has no total, so only explicit sets make sense here.
		if strings.HasPrefix(*injectPanics, "rand:") {
			fmt.Fprintln(os.Stderr, "agreed: -inject-panics: rand:K@seed needs a trial total; a daemon has none — use an explicit set")
			return 2
		}
		ts, err := faultinject.ParseTrialSet(*injectPanics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agreed: -inject-panics: %v\n", err)
			return 2
		}
		inject = ts
	}

	srv, err := service.New(service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		RequestTimeout:    *deadline,
		DefaultMaxWindows: *maxWindows,
		QuarantineAfter:   *quarAfter,
		JournalPath:       *journalPath,
		InjectPanics:      inject,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "agreed: %v\n", err)
		return 1
	}
	if sum := srv.SalvageSummary(); sum != "" {
		fmt.Fprintf(os.Stderr, "agreed: journal salvage: %s\n", sum)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "agreed: %v\n", err)
		srv.Close()
		return 1
	}
	// The resolved address goes to stdout so scripts using port 0 can find
	// the server; everything else logs to stderr.
	fmt.Fprintf(stdout, "agreed: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "agreed: serve: %v\n", err)
		srv.Close()
		return 1
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "agreed: %v: draining (finishing in-flight requests, up to %v)\n", s, *drainTimeout)
	}

	// Drain: stop admitting (readyz goes 503 immediately), then give
	// in-flight requests the drain budget. A second signal aborts the wait.
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sig
		cancel()
	}()

	code := 0
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "agreed: drain incomplete: %v\n", err)
		hs.Close()
		code = 1
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "agreed: journal close: %v\n", err)
		code = 1
	}
	if code == 0 {
		fmt.Fprintln(os.Stderr, "agreed: drained cleanly")
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "agreed: serve: %v\n", err)
		code = 1
	}
	return code
}
