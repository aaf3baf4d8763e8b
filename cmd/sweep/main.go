// Command sweep runs the full algorithm × adversary × scheduler × size ×
// input × seed scenario matrix through the shared registry and prints one
// aggregated table row per cell. Incompatible pairings (e.g. reset
// adversaries against non-reset-tolerant algorithms, lossy delivery
// schedulers against the committee algorithm) and invalid sizes (e.g. the
// core algorithm at t >= n/6) are skipped automatically, so the default
// invocation runs the complete compatible cross-product in one command.
//
// All trials are independently seeded and fanned across a deterministic
// worker pool: the table is byte-identical run-to-run and identical to a
// serial sweep (-serial). Timing goes to stderr so stdout stays
// deterministic.
//
// Results stream: per-cell aggregates are reduced online and -out streams
// one record per trial (JSONL, or CSV when the path ends in .csv), so
// memory stays O(cells) however many seeds run. With -out a checkpoint file
// (default <out>.ckpt, override with -checkpoint, "off" disables) records
// every completed trial; an interrupted sweep — Ctrl-C flushes cleanly and
// prints this hint — rerun with -resume skips the completed prefix and
// produces output byte-identical to an uninterrupted run.
//
// Execution is hardened (DESIGN.md, "Failure model of the harness"): a
// panicking trial becomes a fault record instead of a crash, a cell is
// quarantined after repeated consecutive faults, -deadline converts runaway
// trials into recorded non-termination outcomes, and sink/checkpoint writes
// are retried with deterministic backoff (-retry), degrading to a reported
// drop rather than an abort. The -inject-* flags drive the deterministic
// fault-injection harness (internal/faultinject) that chaos-tests all of
// this. A sweep that completes but saw faults, quarantines, or dropped
// sinks prints its table and exits non-zero.
//
// Usage:
//
//	sweep                                   # full compatible cross-product, default grid
//	sweep -algs core,benor -advs splitvote  # restrict axes
//	sweep -scheds adversary                 # the pre-scheduler trials (table adds a scheduler column)
//	sweep -sizes 12:1,24:3 -trials 5        # custom shapes, seeds 1..5
//	sweep -out results.jsonl -progress      # stream per-trial records, report progress
//	sweep -out results.jsonl -resume        # continue an interrupted sweep
//	sweep -deadline 30s                     # watchdog: record trials exceeding 30s as non-terminating
//	sweep -inject-panics rand:3@7           # chaos: panic 3 seeded-random trials
//	sweep -list                             # print the registered inventory
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"asyncagree/internal/registry"
	"asyncagree/internal/resumable"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, resumable.InstallInterrupt()); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer, interrupted func() bool) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		algs       = fs.String("algs", "", "comma-separated algorithms (empty = all registered)")
		advs       = fs.String("advs", "", "comma-separated adversaries (empty = all registered)")
		scheds     = fs.String("scheds", "", "comma-separated delivery schedulers (empty = all registered)")
		sizes      = fs.String("sizes", "", "comma-separated n:t shapes, e.g. 12:1,24:3 (empty = default grid)")
		inputs     = fs.String("inputs", "", "comma-separated input patterns (empty = default grid)")
		trials     = fs.Int("trials", 0, "trials per cell, seeded 1..trials (0 = default grid)")
		maxWindows = fs.Int("max-windows", 0, "per-trial window budget (0 = default)")
		deadline   = fs.Duration("deadline", 0, "per-trial wall-clock budget; exceeding it records the trial as non-terminating (0 = off)")
		quarAfter  = fs.Int("quarantine-after", 0, "quarantine a cell after N consecutive faulted trials (0 = default 3, negative = never)")
		// -out -checkpoint -resume -progress -interrupt-after -retry
		// -retry-backoff -inject-* -serial -v -list
		shared = resumable.Register(fs, "sweep", "trial",
			"stream per-trial records here (.csv = CSV, anything else = JSONL)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if shared.List {
		registry.WriteInventory(out)
		return nil
	}

	m := registry.Matrix{
		Algorithms:  resumable.SplitList(*algs),
		Adversaries: resumable.SplitList(*advs),
		Schedulers:  resumable.SplitList(*scheds),
		Inputs:      resumable.SplitList(*inputs),
		MaxWindows:  *maxWindows,
	}
	var err error
	if m.Sizes, err = resumable.ParseSizes(*sizes); err != nil {
		return err
	}
	if *trials < 0 {
		return fmt.Errorf("trials must be >= 0, got %d", *trials)
	}
	if *maxWindows < 0 {
		return fmt.Errorf("max-windows must be >= 0, got %d", *maxWindows)
	}
	if *deadline < 0 {
		return fmt.Errorf("deadline must be >= 0, got %s", *deadline)
	}
	for seed := uint64(1); seed <= uint64(*trials); seed++ {
		m.Seeds = append(m.Seeds, seed)
	}

	// The -out export is CSV or JSONL by extension; on resume the CSV header
	// is already in the rewritten prefix.
	outSink := func(w io.Writer, appending bool) registry.ResultSink {
		if !strings.EqualFold(filepath.Ext(shared.Out), ".csv") {
			return registry.NewJSONLSink(w)
		}
		csv := registry.NewCSVSink(w)
		if appending {
			csv.SkipHeader()
		}
		return csv
	}
	sess, err := resumable.Open(shared, m.GridSignature(),
		func(r registry.TrialRecord) int { return r.Index }, outSink, interrupted)
	if err != nil {
		return err
	}
	defer sess.Close()

	opts := registry.RunOptions{
		Sinks:           sess.Sinks,
		Resume:          sess.Prefix,
		Stop:            sess.Stop,
		Serial:          shared.Serial,
		TrialDeadline:   *deadline,
		QuarantineAfter: *quarAfter,
		Inject:          sess.Inject,
	}
	opts.Progress = func(done, total int) {
		if sess.Note(done, done == total) {
			fmt.Fprintf(os.Stderr, "sweep: %d/%d trials (%.1f%%)\n",
				done, total, 100*float64(done)/float64(total))
		}
	}

	start := time.Now()
	sweep, err := m.RunWith(opts)
	if err != nil {
		return sess.Failed(err, args)
	}

	fmt.Fprint(out, sweep.Table().String())
	fmt.Fprintf(out, "\ncells %d   trials %d   incompatible-pairs %d   skipped-sizes %d\n",
		len(sweep.Cells), sweep.TrialCount, sweep.Incompatible, len(sweep.Skipped))
	if shared.Verbose {
		for _, s := range sweep.Skipped {
			fmt.Fprintf(out, "  skipped: %s\n", s)
		}
	}
	// Degradation report: only unhealthy sweeps print it (clean output stays
	// byte-identical to the pre-hardening format) and they exit non-zero
	// below, after the table and aggregates have been delivered in full.
	if !sweep.Healthy() {
		fmt.Fprintf(out, "faulted-trials %d   quarantined-cells %d   dropped-sinks %d\n",
			sweep.Faulted, len(sweep.Quarantined), len(sweep.SinkFailures))
		for _, q := range sweep.Quarantined {
			fmt.Fprintf(out, "  quarantined: %s\n", q)
		}
		for _, s := range sweep.SinkFailures {
			fmt.Fprintf(out, "  sink dropped: %s\n", s)
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d trials in %.2fs\n", sweep.TrialCount, time.Since(start).Seconds())

	if v := sweep.SafetyViolations(); v > 0 {
		return fmt.Errorf("%d agreement/validity violations in safety-certain algorithms (this is a bug, not an expected outcome)", v)
	}
	if !sweep.Healthy() {
		return fmt.Errorf("sweep completed with %d faulted trials, %d quarantined cells, %d dropped sinks",
			sweep.Faulted, len(sweep.Quarantined), len(sweep.SinkFailures))
	}
	return nil
}
