// Command search runs the adversary-optimization driver: instead of
// replaying the paper's fixed lower-bound construction, it searches the
// (adversary knobs × delivery scheduler) space for the configuration that
// stalls an algorithm longest at each system size. A coarse grid over every
// compatible pairing and knob extreme is refined around the frontier, then
// a seeded evolutionary stage mutates the best candidates; every evaluation
// is a batch of seeded registry trials scored by mean windows-to-first-
// decision (censored at -max-windows).
//
// The search is deterministic end to end: the same flags and -seed produce
// byte-identical output, serial (-serial) or parallel. With -out the
// per-evaluation records stream as JSONL and a checkpoint file (default
// <out>.ckpt, -checkpoint overrides, "off" disables) records every
// completed evaluation; an interrupted search — Ctrl-C flushes cleanly and
// prints this hint — rerun with -resume replays the checkpointed prefix
// without re-running a trial and finishes with output byte-identical to an
// uninterrupted run.
//
// Faulted evaluations (panics, injected stalls) become records instead of
// crashes and never enter the frontier; sink writes retry with
// deterministic backoff (-retry) and degrade to a reported drop. The
// -inject-* flags drive the same deterministic fault-injection harness as
// cmd/sweep. A search that completes but saw faults or dropped sinks
// prints its frontier and exits non-zero.
//
// Usage:
//
//	search                                  # default: core algorithm at 12:1 and 16:2
//	search -alg benor -sizes 8:1            # other algorithms and shapes
//	search -advs random,splitvote           # restrict the candidate space
//	search -budget 500 -trials 5            # cap total trials, deepen per-candidate sampling
//	search -out frontier.jsonl -progress    # stream evaluation records, report progress
//	search -out frontier.jsonl -resume      # continue an interrupted search
//	search -list                            # print the registered inventory (with knobs)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"asyncagree/internal/registry"
	"asyncagree/internal/resumable"
	"asyncagree/internal/search"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, resumable.InstallInterrupt()); err != nil {
		fmt.Fprintln(os.Stderr, "search:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer, interrupted func() bool) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	var (
		alg        = fs.String("alg", "", "algorithm under attack (empty = core)")
		advs       = fs.String("advs", "", "comma-separated adversaries to search over (empty = all registered)")
		scheds     = fs.String("scheds", "", "comma-separated delivery schedulers to search over (empty = all registered)")
		sizes      = fs.String("sizes", "", "comma-separated n:t shapes, e.g. 12:1,24:3 (empty = default 12:1,16:2)")
		input      = fs.String("input", "", "input pattern evaluations run on (empty = split)")
		trials     = fs.Int("trials", 0, "seeded trials per candidate evaluation (0 = default 3)")
		maxWindows = fs.Int("max-windows", 0, "per-trial window budget; stalls censor at it (0 = default 2000)")
		budget     = fs.Int("budget", 0, "total trial budget across the whole search (0 = schedule-bounded)")
		seed       = fs.Uint64("seed", 0, "evolutionary-stage mutation seed (0 = default 1)")
		topk       = fs.Int("topk", 0, "per-size frontier width (0 = default 5)")
		refine     = fs.Int("refine", 0, "grid refinement rounds (0 = default 2, negative = none)")
		gens       = fs.Int("gens", 0, "evolutionary generations (0 = default 3, negative = none)")
		pop        = fs.Int("pop", 0, "candidates per generation (0 = default 8)")
		// -out -checkpoint -resume -progress -interrupt-after -retry
		// -retry-backoff -inject-* -serial -v -list
		shared = resumable.Register(fs, "search", "evaluation",
			"stream per-evaluation JSONL records here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if shared.List {
		registry.WriteInventory(out)
		return nil
	}

	if *trials < 0 {
		return fmt.Errorf("trials must be >= 0, got %d", *trials)
	}
	if *maxWindows < 0 {
		return fmt.Errorf("max-windows must be >= 0, got %d", *maxWindows)
	}
	if *budget < 0 {
		return fmt.Errorf("budget must be >= 0, got %d", *budget)
	}
	if *topk < 0 {
		return fmt.Errorf("topk must be >= 0, got %d", *topk)
	}
	if *pop < 0 {
		return fmt.Errorf("pop must be >= 0, got %d", *pop)
	}
	o := search.Options{
		Algorithm:          *alg,
		Input:              *input,
		Adversaries:        resumable.SplitList(*advs),
		Schedulers:         resumable.SplitList(*scheds),
		TrialsPerCandidate: *trials,
		MaxWindows:         *maxWindows,
		Budget:             *budget,
		Seed:               *seed,
		TopK:               *topk,
		Refinements:        *refine,
		Generations:        *gens,
		Population:         *pop,
	}
	var err error
	if o.Sizes, err = resumable.ParseSizes(*sizes); err != nil {
		return err
	}

	sess, err := resumable.Open(shared, o.Signature(),
		func(r search.EvalRecord) int { return r.Index },
		func(w io.Writer, _ bool) search.Sink { return search.NewJSONLSink(w) }, interrupted)
	if err != nil {
		return err
	}
	defer sess.Close()

	ro := search.RunOptions{
		Sinks:  sess.Sinks,
		Resume: sess.Prefix,
		Stop:   sess.Stop,
		Serial: shared.Serial,
		Inject: sess.Inject,
	}
	ro.Progress = func(evals, trialsSpent int) {
		if sess.Note(evals, false) {
			fmt.Fprintf(os.Stderr, "search: %d evaluations, %d trials\n", evals, trialsSpent)
		}
	}

	start := time.Now()
	rep, err := search.Run(o, ro)
	if err != nil {
		return sess.Failed(err, args)
	}

	fmt.Fprint(out, rep.Table().String())
	fmt.Fprintf(out, "\nevaluations %d   trials %d   skipped-sizes %d\n",
		rep.Evals, rep.TrialsSpent, len(rep.Skipped))
	if rep.BudgetExhausted {
		fmt.Fprintf(out, "trial budget %d exhausted: later stages were truncated\n", o.Budget)
	}
	if shared.Verbose {
		for _, s := range rep.Skipped {
			fmt.Fprintf(out, "  skipped: %s\n", s)
		}
	}
	// Degradation report: only unhealthy searches print it, and they exit
	// non-zero below, after the frontier has been delivered in full.
	if !rep.Healthy() {
		fmt.Fprintf(out, "faulted-evaluations %d   dropped-sinks %d\n",
			rep.Faulted, len(rep.SinkFailures))
		for _, s := range rep.SinkFailures {
			fmt.Fprintf(out, "  sink dropped: %s\n", s)
		}
	}
	fmt.Fprintf(os.Stderr, "search: %d evaluations (%d trials) in %.2fs\n",
		rep.Evals, rep.TrialsSpent, time.Since(start).Seconds())

	if !rep.Healthy() {
		return fmt.Errorf("search completed with %d faulted evaluations, %d dropped sinks",
			rep.Faulted, len(rep.SinkFailures))
	}
	return nil
}
