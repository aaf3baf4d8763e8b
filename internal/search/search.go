// Package search is the adversary-optimization driver: it turns the
// repository's replay apparatus around and *searches* the (adversary knobs ×
// delivery scheduler × crash/reset schedule) space for the configurations
// that stall an algorithm longest, per system size.
//
// The driver is staged. A coarse grid probes every compatible (adversary,
// scheduler) pairing at each knob's {min, default, max}; refinement rounds
// re-probe the frontier's neighborhoods at halving steps; a seeded
// evolutionary stage then mutates frontier candidates (knob jitter,
// scheduler swaps) mixed with uniform immigrants. Every candidate
// evaluation is a batch of seeded registry trials through the pooled trial
// engine, scored by the order-deterministic accumulators of internal/stream
// (mean windows-to-first-decision, censored at the window budget), and the
// per-size frontier is a stream.TopK keyed by candidate identity.
//
// Determinism contract: the full evaluation schedule — batch membership,
// global indices, mutation rng consumption — is a pure function of Options
// and the index-ordered evaluation records emitted before each batch is
// generated. Batches run on the registry's record pipeline
// (registry.Pipeline: worker pool or serial loop, byte-identically, with
// resume replay, sink fan-out and the final flush), every trial executes
// through registry.RunContained, and this package supplies only the schedule
// and the fold. Checkpoints record the emitted prefix in the sweep's
// grid-signature JSONL format (header + one EvalRecord per line) against
// Options.Signature; an interrupted search resumed from its checkpoint
// regenerates the schedule, replays the recorded prefix through the same
// state machine — frontier updates, budget accounting, dedup — without
// re-running a trial, and continues with output byte-identical to an
// uninterrupted run. See DESIGN.md §4b.
package search

import (
	"fmt"

	"asyncagree/internal/faultinject"
	"asyncagree/internal/registry"
	"asyncagree/internal/rng"
	"asyncagree/internal/stream"
)

// ErrInterrupted is returned by Run when RunOptions.Stop requested a clean
// stop — the record pipeline's registry.ErrInterrupted under the search's
// name: everything emitted is a consistent index-ordered prefix (already
// flushed through the sinks), and a resumed search completes the rest with
// output identical to an uninterrupted one.
var ErrInterrupted = registry.ErrInterrupted

// Options describes one search: the scenario axes, the evaluation cost per
// candidate, and the stage schedule. The zero value resolves to the default
// core-algorithm search (see resolve).
type Options struct {
	// Algorithm is the registry key of the algorithm under attack
	// (default "core").
	Algorithm string
	// Sizes lists the (n, t) shapes searched, each with its own frontier
	// (default 12:1 and 16:2). Sizes the algorithm rejects are skipped and
	// reported.
	Sizes []registry.Size
	// Input is the input pattern evaluations run on (default "split", the
	// paper's adversarial assignment).
	Input string
	// Adversaries and Schedulers restrict the candidate space to the named
	// registry entries; empty means every registered one (filtered by the
	// sweep matrix's compatibility predicates either way).
	Adversaries []string
	Schedulers  []string
	// TrialsPerCandidate is the number of seeded trials (seeds 1..k) per
	// candidate evaluation (default 3).
	TrialsPerCandidate int
	// MaxWindows is the per-trial window budget; stalls are censored at it
	// (default 2000).
	MaxWindows int
	// Budget caps the total seeded trials across the whole search; batches
	// are truncated deterministically when it runs low. 0 = unlimited (the
	// stage schedule alone bounds the work).
	Budget int
	// Seed seeds the evolutionary stage's mutation stream (default 1).
	Seed uint64
	// TopK is the per-size frontier width (default 5).
	TopK int
	// Refinements is the number of grid-refinement rounds (default 2).
	Refinements int
	// Generations and Population shape the evolutionary stage: Generations
	// batches of Population candidates each (defaults 3 and 8).
	Generations int
	Population  int
}

// resolve fills defaults, returning the fully explicit options every
// schedule computation works from.
func (o Options) resolve() Options {
	if o.Algorithm == "" {
		o.Algorithm = "core"
	}
	if len(o.Sizes) == 0 {
		o.Sizes = []registry.Size{{N: 12, T: 1}, {N: 16, T: 2}}
	}
	if o.Input == "" {
		o.Input = "split"
	}
	if len(o.Adversaries) == 0 {
		o.Adversaries = registry.AdversaryNames()
	}
	if len(o.Schedulers) == 0 {
		o.Schedulers = registry.SchedulerNames()
	}
	if o.TrialsPerCandidate <= 0 {
		o.TrialsPerCandidate = 3
	}
	if o.MaxWindows <= 0 {
		o.MaxWindows = 2000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TopK <= 0 {
		o.TopK = 5
	}
	if o.Refinements < 0 {
		o.Refinements = 0
	} else if o.Refinements == 0 {
		o.Refinements = 2
	}
	if o.Generations < 0 {
		o.Generations = 0
	} else if o.Generations == 0 {
		o.Generations = 3
	}
	if o.Population <= 0 {
		o.Population = 8
	}
	return o
}

// Signature renders the resolved options that determine the evaluation
// schedule as a canonical one-line string. Search checkpoints record it so
// a resume against different options (which would silently misalign
// evaluation indices) is rejected instead of merged.
func (o Options) Signature() string {
	o = o.resolve()
	var b []byte
	b = fmt.Appendf(b, "search alg=%s sizes=", o.Algorithm)
	for i, s := range o.Sizes {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%s", s)
	}
	b = fmt.Appendf(b, " input=%s advs=", o.Input)
	for i, a := range o.Adversaries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, a...)
	}
	b = append(b, " scheds="...)
	for i, s := range o.Schedulers {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, s...)
	}
	b = fmt.Appendf(b, " trials=%d max-windows=%d budget=%d seed=%d topk=%d refine=%d gens=%d pop=%d",
		o.TrialsPerCandidate, o.MaxWindows, o.Budget, o.Seed, o.TopK, o.Refinements, o.Generations, o.Population)
	return string(b)
}

// RunOptions configures one execution of the search: resumption, sinks,
// interruption, progress, and fault injection. The zero value runs the
// search to completion with nothing attached.
type RunOptions struct {
	// Sinks receive every live evaluation in index order, then a final
	// Flush (also on error/interrupt). Replayed Resume records do not
	// re-enter the sinks — their bytes are already in the sink outputs of
	// the interrupted run.
	Sinks []Sink
	// Resume holds the evaluation prefix of an earlier interrupted run
	// (loaded from its checkpoint with LoadCheckpoint). Records must match
	// the regenerated schedule exactly — Run re-verifies stage, size, and
	// candidate per index and fails on mismatch — and replay through the
	// frontier/budget state machine instead of re-executing trials.
	Resume []EvalRecord
	// Stop is polled before each evaluation starts and again after each is
	// emitted; returning true stops the search cleanly with ErrInterrupted
	// once in-flight evaluations drain.
	Stop func() bool
	// Progress, if set, observes the emission frontier after every
	// evaluation: evaluations emitted and trials spent so far. It runs on
	// the serial emission path — keep it cheap.
	Progress func(evals, trials int)
	// Serial evaluates batches on a plain serial loop instead of the worker
	// pool (byte-identical output, used by determinism tests and -serial).
	Serial bool
	// Inject is the deterministic fault-injection plan (nil injects
	// nothing): panicking or stalling evaluations by index, exercising the
	// fault-record path end to end. Run materializes seeded selections
	// against the schedule's maximum evaluation count.
	Inject *faultinject.Plan
}

// sizeState is the per-size search state: the frontier and the records
// backing it.
type sizeState struct {
	size     registry.Size
	prs      []pairing
	frontier *stream.TopK
	byKey    map[string]EvalRecord
	seen     map[string]bool
}

// driver carries one Run's mutable state.
type driver struct {
	o      Options
	ro     RunOptions
	report *Report
	pipe   registry.Pipeline[EvalRecord]

	spent     int // trials consumed by emitted evaluations
	exhausted bool
}

// Run executes the search. The returned Report is non-nil exactly when err
// is nil; on ErrInterrupted everything emitted has been flushed through the
// sinks and the search is resumable from its checkpoint.
func Run(o Options, ro RunOptions) (*Report, error) {
	o = o.resolve()
	alg, err := registry.LookupAlgorithm(o.Algorithm)
	if err != nil {
		return nil, err
	}
	if _, err := registry.Inputs(o.Input, 1, 1); err != nil {
		return nil, err
	}
	d := &driver{
		o: o, ro: ro,
		report: &Report{
			Signature: o.Signature(),
			Frontier:  map[string][]EvalRecord{},
		},
		pipe: registry.Pipeline[EvalRecord]{Unit: "eval", Sinks: ro.Sinks, Resume: ro.Resume,
			Stop: ro.Stop, Serial: ro.Serial},
	}

	// Build the per-size states up front; sizes the algorithm rejects are
	// skipped with a report entry (mirroring the sweep matrix).
	var states []*sizeState
	for _, size := range o.Sizes {
		if verr := alg.Validate(registry.Params{N: size.N, T: size.T}); verr != nil {
			d.report.Skipped = append(d.report.Skipped, fmt.Sprintf("%s %s: %v", o.Algorithm, size, verr))
			continue
		}
		prs, err := pairings(alg, size, o.Adversaries, o.Schedulers)
		if err != nil {
			return nil, err
		}
		if len(prs) == 0 {
			d.report.Skipped = append(d.report.Skipped, fmt.Sprintf("%s %s: no compatible (adversary, scheduler) pairing", o.Algorithm, size))
			continue
		}
		states = append(states, &sizeState{
			size: size, prs: prs,
			frontier: stream.NewTopK(o.TopK),
			byKey:    map[string]EvalRecord{},
			seen:     map[string]bool{},
		})
		d.report.Sizes = append(d.report.Sizes, size)
	}

	// Materialize seeded fault selections against the schedule's maximum
	// evaluation count — an upper bound computed from the options alone, so
	// the selection is deterministic and resume-stable.
	inject := ro.Inject
	inject.Materialize(d.evalCap(states))

	// The mutation stream is consumed during batch *generation*, which
	// re-runs identically on resume, so one shared source keeps the whole
	// schedule deterministic.
	mrng := rng.New(o.Seed)

	runErr := func() error {
		for _, st := range states {
			if err := d.runBatch(st, "grid", dedup(st, gridCandidates(st.prs))); err != nil {
				return err
			}
			for r := 1; r <= o.Refinements; r++ {
				var cands []Candidate
				for _, item := range st.frontier.Items() {
					rec := st.byKey[item.ID]
					adv := findAdversary(st.prs, rec.Candidate.Adversary)
					if adv == nil {
						continue
					}
					cands = append(cands, neighbors(adv, rec.Candidate, r)...)
				}
				if err := d.runBatch(st, fmt.Sprintf("refine%d", r), dedup(st, cands)); err != nil {
					return err
				}
			}
			for g := 1; g <= o.Generations; g++ {
				cands := d.generation(st, mrng)
				if err := d.runBatch(st, fmt.Sprintf("gen%d", g), cands); err != nil {
					return err
				}
			}
		}
		return nil
	}()

	d.report.SinkFailures = d.pipe.Flush()
	if runErr != nil {
		return nil, runErr
	}
	for _, st := range states {
		var frontier []EvalRecord
		for _, item := range st.frontier.Items() {
			frontier = append(frontier, st.byKey[item.ID])
		}
		d.report.Frontier[st.size.String()] = frontier
	}
	d.report.BudgetExhausted = d.exhausted
	return d.report, nil
}

// evalCap bounds the number of evaluations the schedule could possibly
// emit: the grid stages plus every refinement neighbor and every
// evolutionary offspring, ignoring dedup and budget truncation (both only
// shrink the schedule). Fault-injection selections materialize against it.
func (d *driver) evalCap(states []*sizeState) int {
	cap := 0
	for _, st := range states {
		grid := len(gridCandidates(st.prs))
		maxKnobs := 0
		for _, pr := range st.prs {
			if k := len(pr.adv.Knobs); k > maxKnobs {
				maxKnobs = k
			}
		}
		cap += grid
		cap += d.o.Refinements * d.o.TopK * 2 * maxKnobs
		cap += d.o.Generations * d.o.Population
	}
	return cap
}

// dedup filters candidates already scheduled for this size, marking the
// survivors as seen. Scheduling-time dedup keeps the schedule a pure
// function of pre-batch state.
func dedup(st *sizeState, cands []Candidate) []Candidate {
	var out []Candidate
	for _, c := range cands {
		key := c.Key()
		if st.seen[key] {
			continue
		}
		st.seen[key] = true
		out = append(out, c)
	}
	return out
}

// generation assembles one evolutionary batch: mutated frontier candidates
// (two draws out of three) mixed with uniform immigrants, deduplicated
// against everything scheduled, bounded by Population. The rng consumption
// is part of the deterministic schedule.
func (d *driver) generation(st *sizeState, src *rng.Source) []Candidate {
	var out []Candidate
	frontier := st.frontier.Items()
	for attempts := 0; len(out) < d.o.Population && attempts < 20*d.o.Population; attempts++ {
		var c Candidate
		ok := false
		if len(frontier) > 0 && src.Intn(3) < 2 {
			rec := st.byKey[frontier[src.Intn(len(frontier))].ID]
			c, ok = mutate(src, st.prs, rec.Candidate)
		} else {
			c, ok = immigrant(src, st.prs), true
		}
		if !ok || st.seen[c.Key()] {
			continue
		}
		st.seen[c.Key()] = true
		out = append(out, c)
	}
	return out
}

// runBatch evaluates one stage's candidates as the next batch of the record
// pipeline: budget truncation here, then execution, resume replay and sink
// fan-out in the pipeline, with the frontier and budget folded on its serial
// emission path.
func (d *driver) runBatch(st *sizeState, stage string, cands []Candidate) error {
	if d.exhausted || len(cands) == 0 {
		return nil
	}
	if d.o.Budget > 0 {
		affordable := (d.o.Budget - d.spent) / d.o.TrialsPerCandidate
		if affordable < len(cands) {
			d.exhausted = true
			if affordable <= 0 {
				return nil
			}
			cands = cands[:affordable]
		}
	}
	for _, c := range cands {
		if err := validateCandidate(c); err != nil {
			return err
		}
	}
	base := d.report.Evals // every earlier batch was emitted in full
	blank := func(i int) EvalRecord {
		return EvalRecord{Index: i, Stage: stage, N: st.size.N, T: st.size.T, Candidate: cands[i-base]}
	}
	return d.pipe.Run(len(cands),
		func(i int) string { return blank(i).Key() },
		func(i int) EvalRecord { return d.evaluate(blank(i)) },
		func(_ int, rec EvalRecord) EvalRecord {
			d.report.Evals++
			d.spent += rec.Trials
			d.report.TrialsSpent += rec.Trials
			if rec.Faulted() {
				d.report.Faulted++
			} else {
				key := rec.Candidate.Key()
				st.frontier.Add(rec.MeanStall, key)
				st.byKey[key] = rec
			}
			if d.ro.Progress != nil {
				d.ro.Progress(d.report.Evals, d.report.TrialsSpent)
			}
			return rec
		})
}

// evaluate scores one candidate: TrialsPerCandidate seeded trials (seeds
// 1..k — the same ladder the lowerbound replay uses) through
// registry.RunContained, reduced into the stall statistics. The first
// faulted trial ends the evaluation as a fault record; injected faults
// exercise exactly that path.
func (d *driver) evaluate(rec EvalRecord) EvalRecord {
	var (
		sum                  stream.Summary
		i                    = rec.Index
		injectPanic          = d.ro.Inject.ShouldPanic(i)
		stallAt, injectStall = d.ro.Inject.ShouldStall(i)
	)
	for trial := 1; trial <= d.o.TrialsPerCandidate; trial++ {
		var expired func(windows int) bool
		if injectPanic && trial == 1 {
			expired = func(int) bool {
				panic(fmt.Sprintf("faultinject: injected panic (eval %d, %s)", i, rec.Key()))
			}
		} else if injectStall {
			expired = func(windows int) bool { return windows >= stallAt }
		}
		out := registry.RunContained(d.o.Algorithm, rec.Adversary, rec.Scheduler, d.o.Input,
			registry.Params{N: rec.N, T: rec.T, Seed: uint64(trial),
				AdvKnobs: knobsOrNil(rec.Knobs)},
			d.o.MaxWindows, expired, nil)
		if out.Kind != "" {
			rec.FaultKind, rec.Fault = out.Kind, out.Fault
			switch out.Kind {
			case registry.FaultError:
				rec.Fault = fmt.Sprintf("%s (eval %d, %s)", out.Fault, i, rec.Key())
			case registry.FaultDeadline:
				rec.Fault = fmt.Sprintf("faultinject: injected stall at window %d after %d windows (eval %d, %s)",
					stallAt, out.Result.Windows, i, rec.Key())
			}
			return rec
		}
		fd := out.Result.FirstDecision
		if fd < 0 {
			fd = d.o.MaxWindows // censored
			rec.Survived++
		}
		sum.AddInt(fd)
		rec.Trials = trial
	}
	rec.MeanStall = sum.Mean()
	rec.MinStall = int(sum.Min())
	rec.MaxStall = int(sum.Max())
	return rec
}
