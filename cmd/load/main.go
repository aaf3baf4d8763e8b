// Command load is an open-loop load generator for the agreed daemon: it
// fires requests at a fixed target rate (-rps) regardless of how fast the
// server answers — request i is due at start + i/rps whatever happened to
// the requests before it, so the arrival process never slows down to match
// a struggling server, which is exactly what makes overload visible — while
// a concurrency bound (-concurrency) caps in-flight work; a due request that
// finds no free slot is counted as skipped, never silently dropped: the
// report's sent + skipped is every request that fell due.
//
// The request mix is deterministic: scenarios come from -mix (comma-
// separated alg/adv/sched/input/n:t specs) picked by a seeded RNG, and each
// request's trial seed is its global index, so two runs with the same flags
// ask the server for byte-identical work — the property the crash-recovery
// smoke test leans on when it compares a chaos run against a clean one.
//
// 503s (overload shedding, quarantine) are retried with the deterministic
// backoff of internal/retry, honoring cancellation mid-sleep; other errors
// are terminal for that request. Latency is timed from a request's due time
// (so lateness of the generator counts against the server it could not
// reach in time) and lands in internal/stream summaries
// (mean/min/max) and a deterministic reservoir (p50/p90/p99). The exit
// status enforces budgets: non-zero when the error rate exceeds
// -max-error-rate, or when -max-p99 is set and the p99 exceeds it or no
// request came back ok to measure one.
//
// With -instance NAME the generator instead creates (idempotently) the
// named instance and drives POST /instances/NAME/run, exercising the
// journaled path.
//
// Usage:
//
//	load -addr localhost:8080 -rps 50 -duration 10s
//	load -addr localhost:8080 -mix core/full/adversary/split/12:1,benor/subsets/adversary/split/9:2
//	load -addr localhost:8080 -instance exp1 -rps 20 -duration 5s
//	load -addr localhost:8080 -rps 200 -max-error-rate 0.01 -max-p99 500ms
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"asyncagree/internal/retry"
	"asyncagree/internal/rng"
	"asyncagree/internal/stream"
)

// scenarioSpec is one parsed -mix entry.
type scenarioSpec struct {
	alg, adv, sched, input string
	n, t                   int
}

// parseMix parses "alg/adv/sched/input/n:t" specs.
func parseMix(s string) ([]scenarioSpec, error) {
	var specs []scenarioSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, "/")
		if len(fields) != 5 {
			return nil, fmt.Errorf("spec %q: want alg/adv/sched/input/n:t", part)
		}
		nt := strings.SplitN(fields[4], ":", 2)
		if len(nt) != 2 {
			return nil, fmt.Errorf("spec %q: size %q: want n:t", part, fields[4])
		}
		n, err := strconv.Atoi(nt[0])
		if err != nil {
			return nil, fmt.Errorf("spec %q: bad n: %v", part, err)
		}
		t, err := strconv.Atoi(nt[1])
		if err != nil {
			return nil, fmt.Errorf("spec %q: bad t: %v", part, err)
		}
		specs = append(specs, scenarioSpec{
			alg: fields[0], adv: fields[1], sched: fields[2], input: fields[3], n: n, t: t,
		})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return specs, nil
}

// runBody renders the POST /run body for request index i of the mix.
func (sp scenarioSpec) runBody(seed uint64) []byte {
	b, _ := json.Marshal(map[string]any{
		"algorithm": sp.alg, "adversary": sp.adv, "scheduler": sp.sched,
		"input": sp.input, "n": sp.n, "t": sp.t, "seed": seed,
	})
	return b
}

// outcome classifies one finished request for the tally.
type outcome struct {
	status   int
	err      error
	latency  time.Duration
	retries  int
	canceled bool // cut short by the generator's own shutdown
}

// tally aggregates outcomes under a lock: counts per class, latency
// summary, and a deterministic reservoir for quantiles.
type tally struct {
	mu        sync.Mutex
	total     int
	ok        int
	shed      int // terminal 503s (retries exhausted)
	faults    int // 5xx/4xx other than shed
	netErrors int
	canceled  int // cut short by our own shutdown; never charged
	retries   int
	latency   stream.Summary
	res       *stream.Reservoir
}

func (ta *tally) add(o outcome) {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	ta.total++
	ta.retries += o.retries
	switch {
	case o.canceled:
		ta.canceled++
	case o.err != nil:
		ta.netErrors++
	case o.status == http.StatusOK:
		ta.ok++
		ta.latency.Add(o.latency.Seconds())
		ta.res.Add(o.latency.Seconds())
	case o.status == http.StatusServiceUnavailable:
		ta.shed++
	default:
		ta.faults++
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the testable generator body; the report goes to stdout and the
// return value is the process exit code (non-zero on budget violations).
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "agreed server address (host:port)")
		rps         = fs.Float64("rps", 20, "target request rate (open loop)")
		duration    = fs.Duration("duration", 5*time.Second, "load duration")
		concurrency = fs.Int("concurrency", 32, "max in-flight requests; saturated ticks are counted, not queued")
		mixFlag     = fs.String("mix", "core/full/adversary/split/12:1", "comma-separated alg/adv/sched/input/n:t scenario mix")
		seed        = fs.Uint64("seed", 1, "mix-selection seed; request i uses trial seed i")
		instance    = fs.String("instance", "", "drive POST /instances/NAME/run instead of /run (first mix entry is the instance scenario)")
		attempts    = fs.Int("retry-attempts", 4, "attempts per request on 503 (shed/quarantine)")
		retryBase   = fs.Duration("retry-base", 50*time.Millisecond, "base backoff between retries")
		maxErrRate  = fs.Float64("max-error-rate", 1.0, "exit non-zero when (faults+net errors)/total exceeds this")
		maxP99      = fs.Duration("max-p99", 0, "exit non-zero when ok-request p99 exceeds this (0: no budget)")
		quiet       = fs.Bool("quiet", false, "suppress the per-run report (exit status only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	specs, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: -mix: %v\n", err)
		return 2
	}
	if *rps <= 0 || *rps > 1e9 {
		fmt.Fprintln(os.Stderr, "load: -rps must be positive (and at most 1e9)")
		return 2
	}
	if *concurrency < 1 {
		fmt.Fprintln(os.Stderr, "load: -concurrency must be at least 1")
		return 2
	}
	if *duration <= 0 {
		fmt.Fprintln(os.Stderr, "load: -duration must be positive")
		return 2
	}
	if *attempts < 1 {
		fmt.Fprintln(os.Stderr, "load: -retry-attempts must be at least 1")
		return 2
	}
	if *retryBase < 0 {
		fmt.Fprintln(os.Stderr, "load: -retry-base must not be negative")
		return 2
	}
	if *maxP99 < 0 {
		fmt.Fprintln(os.Stderr, "load: -max-p99 must not be negative")
		return 2
	}
	if !(*maxErrRate >= 0 && *maxErrRate <= 1) { // NaN fails both
		fmt.Fprintln(os.Stderr, "load: -max-error-rate must be in [0, 1]")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := "http://" + *addr
	client := &http.Client{}
	pol := retry.Policy{Attempts: *attempts, Base: *retryBase, Max: time.Second}

	if *instance != "" {
		if code := createInstance(ctx, client, base, *instance, specs[0]); code != 0 {
			return code
		}
	}

	ta := &tally{res: stream.NewReservoir(4096)}
	pick := rng.New(*seed)
	sem := make(chan struct{}, *concurrency)
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / *rps)
	// Request i is due at start + i*interval whatever happened to the
	// requests before it (the rule benchmark/loadgen.go documents): a loop
	// that wakes late sends the overdue requests at once instead of losing
	// their ticks, so sent + skipped is every request that fell due.
	n := int((*duration + interval - 1) / interval)
	start := time.Now()
	ctx, cancel := context.WithDeadline(ctx, start.Add(*duration))
	defer cancel()
	due, sent, skipped := 0, 0, 0
	for ; due < n; due++ {
		at := start.Add(time.Duration(due) * interval)
		if wait := time.Until(at); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			break // interrupted: the rest of the schedule never fell due
		}
		// Open loop: the request is due on schedule no matter what; if every
		// slot is busy it is recorded as skipped rather than queued (queuing
		// would close the loop and hide the overload).
		select {
		case sem <- struct{}{}:
		default:
			skipped++
			continue
		}
		idx := sent
		sent++
		sp := specs[pick.Intn(len(specs))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ta.add(fire(ctx, client, pol, base, *instance, sp, uint64(idx), at))
		}()
	}
	wg.Wait()

	return report(stdout, ta, due, sent, skipped, *maxErrRate, *maxP99, *quiet)
}

// createInstance idempotently creates the named instance before the run.
func createInstance(ctx context.Context, client *http.Client, base, name string, sp scenarioSpec) int {
	body, _ := json.Marshal(map[string]any{"scenario": map[string]any{
		"algorithm": sp.alg, "adversary": sp.adv, "scheduler": sp.sched,
		"input": sp.input, "n": sp.n, "t": sp.t,
	}})
	req, err := http.NewRequestWithContext(ctx, "PUT", base+"/instances/"+name, bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		return 1
	}
	resp, err := client.Do(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: create instance: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		fmt.Fprintf(os.Stderr, "load: create instance: %d: %s\n", resp.StatusCode, b)
		return 1
	}
	return 0
}

// fire sends one request, retrying 503s under the policy, and classifies
// the outcome. Latency runs from due, the instant the schedule owed the
// request, to the answer that ended it: a late send and the backoff of a
// retried 503 are waiting the caller really did.
func fire(ctx context.Context, client *http.Client, pol retry.Policy, base, instance string, sp scenarioSpec, seed uint64, due time.Time) outcome {
	var (
		o        outcome
		attempts int
	)
	err := pol.DoCtx(ctx, func() error {
		attempts++
		var req *http.Request
		var rerr error
		if instance != "" {
			req, rerr = http.NewRequestWithContext(ctx, "POST", base+"/instances/"+instance+"/run", nil)
		} else {
			req, rerr = http.NewRequestWithContext(ctx, "POST", base+"/run", bytes.NewReader(sp.runBody(seed)))
		}
		if rerr != nil {
			o.err = rerr
			return nil // not retryable
		}
		resp, derr := client.Do(req)
		if derr != nil {
			// A request cut short by the generator's own shutdown (duration
			// elapsed, SIGTERM) is the harness's doing, not the server's:
			// classify it separately so it never charges the error budget.
			if ctx.Err() != nil {
				o.canceled = true
				o.err = nil
				return nil
			}
			o.err = derr
			return nil // connection errors are terminal for this request
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
		o.latency = time.Since(due)
		o.err = nil
		if resp.StatusCode == http.StatusServiceUnavailable {
			return fmt.Errorf("503") // retry shed/quarantined requests
		}
		// 409 = lost an instance-seq race to a concurrent generator; retry.
		if instance != "" && resp.StatusCode == http.StatusConflict {
			return fmt.Errorf("409")
		}
		return nil
	})
	if attempts == 0 {
		// The generator's own shutdown beat the first attempt out of DoCtx:
		// no request ever reached the server, so there is nothing to judge.
		o.canceled = true
		return o
	}
	o.retries = attempts - 1
	_ = err // a fully-shed request keeps its last 503 classification
	return o
}

// report prints the run summary and maps budget violations to the exit
// status.
func report(stdout io.Writer, ta *tally, due, sent, skipped int, maxErrRate float64, maxP99 time.Duration, quiet bool) int {
	ta.mu.Lock()
	defer ta.mu.Unlock()

	// Error rate is over requests the server was given a fair chance to
	// answer: generator-canceled tails are excluded.
	errRate := 0.0
	if judged := ta.total - ta.canceled; judged > 0 {
		errRate = float64(ta.faults+ta.netErrors) / float64(judged)
	}
	var p50, p90, p99 time.Duration
	if ta.ok > 0 {
		q := func(p float64) time.Duration {
			return time.Duration(ta.res.Quantile(p) * float64(time.Second))
		}
		p50, p90, p99 = q(0.50), q(0.90), q(0.99)
	}

	if !quiet {
		fmt.Fprintf(stdout, "load: %d due: %d sent, %d skipped at concurrency cap; %d ok, %d shed, %d faulted, %d net errors, %d canceled, %d retries\n",
			due, sent, skipped, ta.ok, ta.shed, ta.faults, ta.netErrors, ta.canceled, ta.retries)
		if ta.ok > 0 {
			fmt.Fprintf(stdout, "load: latency mean %.1fms p50 %.1fms p90 %.1fms p99 %.1fms max %.1fms\n",
				ta.latency.Mean()*1000, p50.Seconds()*1000, p90.Seconds()*1000,
				p99.Seconds()*1000, ta.latency.Max()*1000)
		}
		fmt.Fprintf(stdout, "load: error rate %.4f\n", errRate)
	}

	code := 0
	if errRate > maxErrRate {
		fmt.Fprintf(os.Stderr, "load: error rate %.4f exceeds budget %.4f\n", errRate, maxErrRate)
		code = 1
	}
	switch {
	case maxP99 > 0 && ta.ok == 0:
		fmt.Fprintln(os.Stderr, "load: no ok responses to judge p99")
		code = 1
	case maxP99 > 0 && p99 > maxP99:
		fmt.Fprintf(os.Stderr, "load: p99 %v exceeds budget %v\n", p99, maxP99)
		code = 1
	}
	return code
}
