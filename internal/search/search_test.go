package search

import (
	"bytes"
	"strings"
	"testing"

	"asyncagree/internal/faultinject"
	"asyncagree/internal/registry"
)

// quickOpts is the small, fast search every test starts from: one size, a
// restricted candidate space, short trials.
func quickOpts() Options {
	return Options{
		Algorithm:          "core",
		Sizes:              []registry.Size{{N: 12, T: 1}},
		Adversaries:        []string{"random", "splitvote", "silence"},
		Schedulers:         []string{"adversary", "seeded"},
		TrialsPerCandidate: 2,
		MaxWindows:         40,
		TopK:               3,
		Refinements:        1,
		Generations:        2,
		Population:         4,
		Seed:               7,
	}
}

// runToBuffer executes a search with a JSONL sink into a buffer, returning
// the report and the exported bytes.
func runToBuffer(t *testing.T, o Options, ro RunOptions) (*Report, []byte, error) {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	ro.Sinks = append(ro.Sinks, NamedSink{Name: "buf", Sink: sink})
	rep, err := Run(o, ro)
	return rep, buf.Bytes(), err
}

func TestSearchResumeMismatchRejected(t *testing.T) {
	o := quickOpts()
	var collected []EvalRecord
	_, _, err := runToBuffer(t, o, RunOptions{Serial: true, Sinks: []Sink{collector{&collected}}})
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]EvalRecord(nil), collected[:4]...)
	tampered[2].Candidate.Scheduler = "laggard"
	_, err = Run(o, RunOptions{Serial: true, Resume: tampered})
	if err == nil || !strings.Contains(err.Error(), "checkpoint eval 2") {
		t.Fatalf("want schedule-mismatch error naming eval 2, got %v", err)
	}
}

// collector gathers records in memory (a test sink).
type collector struct{ recs *[]EvalRecord }

func (c collector) Consume(r EvalRecord) error { *c.recs = append(*c.recs, r); return nil }
func (c collector) Flush() error               { return nil }

func TestSearchBudgetExhausted(t *testing.T) {
	o := quickOpts()
	o.Budget = 10 // 5 evaluations at 2 trials each
	rep, _, err := runToBuffer(t, o, RunOptions{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BudgetExhausted {
		t.Fatal("want BudgetExhausted")
	}
	if rep.TrialsSpent > o.Budget {
		t.Fatalf("spent %d trials over budget %d", rep.TrialsSpent, o.Budget)
	}
	if rep.Evals != 5 {
		t.Fatalf("want exactly 5 affordable evals, got %d", rep.Evals)
	}
}

func TestSearchFaultInjection(t *testing.T) {
	o := quickOpts()
	panics, err := faultinject.ParseTrialSet("0")
	if err != nil {
		t.Fatal(err)
	}
	stalls, err := faultinject.ParseTrialSet("1")
	if err != nil {
		t.Fatal(err)
	}
	plan := &faultinject.Plan{Panic: panics, Stall: stalls, StallWindow: 1}
	var collected []EvalRecord
	rep, _, err := runToBuffer(t, o, RunOptions{Serial: true, Inject: plan,
		Sinks: []Sink{collector{&collected}}})
	if err != nil {
		t.Fatalf("injected faults must degrade, not fail the search: %v", err)
	}
	if rep.Faulted != 2 {
		t.Fatalf("want 2 faulted evals, got %d", rep.Faulted)
	}
	if rep.Healthy() {
		t.Fatal("faulted run reported healthy")
	}
	if collected[0].FaultKind != registry.FaultPanic || !strings.Contains(collected[0].Fault, "injected panic") {
		t.Fatalf("eval 0: want injected panic record, got %+v", collected[0])
	}
	if collected[1].FaultKind != registry.FaultDeadline || !strings.Contains(collected[1].Fault, "injected stall") {
		t.Fatalf("eval 1: want injected stall record, got %+v", collected[1])
	}
	for _, f := range rep.Frontier["12:1"] {
		if f.Faulted() {
			t.Fatalf("faulted record on the frontier: %+v", f)
		}
	}
}

// TestSearchBeatsReplayBaseline pins the E16 property at unit scale: the
// searched frontier is at least as good as the historical replay
// construction (splitvote under the adversary-driven scheduler at default
// knobs), because that exact candidate is in the coarse grid.
func TestSearchBeatsReplayBaseline(t *testing.T) {
	o := quickOpts()
	o.Adversaries = []string{"splitvote"}
	o.Schedulers = []string{"adversary"}
	size := o.Sizes[0]

	// Replay baseline: the same seeds, inputs, and censoring the evaluator
	// uses, with the historical (nil-knob) construction.
	var replaySum float64
	for trial := 1; trial <= o.TrialsPerCandidate; trial++ {
		seed := uint64(trial)
		inputs, err := registry.Inputs("split", size.N, seed)
		if err != nil {
			t.Fatal(err)
		}
		e, err := registry.AcquireTrial("core", "splitvote", "adversary",
			registry.Params{N: size.N, T: size.T, Inputs: inputs, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := e.RunUntil(o.MaxWindows, nil)
		e.Release()
		if err != nil {
			t.Fatal(err)
		}
		fd := res.FirstDecision
		if fd < 0 {
			fd = o.MaxWindows
		}
		replaySum += float64(fd)
	}
	replayMean := replaySum / float64(o.TrialsPerCandidate)

	rep, _, err := runToBuffer(t, o, RunOptions{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := rep.Best(size)
	if !ok {
		t.Fatal("no frontier entry")
	}
	if best.MeanStall < replayMean {
		t.Fatalf("searched best %.2f below replay baseline %.2f", best.MeanStall, replayMean)
	}
}

func TestSearchSignatureCoversSchedule(t *testing.T) {
	a, b := quickOpts(), quickOpts()
	if a.Signature() != b.Signature() {
		t.Fatal("identical options, different signatures")
	}
	b.Seed++
	if a.Signature() == b.Signature() {
		t.Fatal("seed change not reflected in signature")
	}
	c := quickOpts()
	c.Schedulers = []string{"adversary"}
	if a.Signature() == c.Signature() {
		t.Fatal("scheduler restriction not reflected in signature")
	}
}

func TestSearchSkipsInvalidSize(t *testing.T) {
	o := quickOpts()
	o.Sizes = append([]registry.Size{{N: 5, T: 2}}, o.Sizes...) // violates t < n/6
	rep, _, err := runToBuffer(t, o, RunOptions{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 || !strings.Contains(rep.Skipped[0], "5:2") {
		t.Fatalf("want one skipped size 5:2, got %v", rep.Skipped)
	}
	if len(rep.Sizes) != 1 {
		t.Fatalf("want one searched size, got %v", rep.Sizes)
	}
}

func TestSearchReportTable(t *testing.T) {
	o := quickOpts()
	rep, _, err := runToBuffer(t, o, RunOptions{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Table().String()
	for _, want := range []string{"candidate", "mean-stall", "grid"} {
		if !strings.Contains(out, want) {
			t.Fatalf("frontier table missing %q:\n%s", want, out)
		}
	}
}
