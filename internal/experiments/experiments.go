// Package experiments regenerates every quantitative claim of the paper as
// a table (the paper has no numbered tables or figures — it is pure theory —
// so each theorem or in-text argument gets an experiment; see DESIGN.md §5
// and EXPERIMENTS.md for the index).
//
// Each experiment is registered under a stable ID (E1..E16) and runs at one
// of two scales: ScaleQuick for CI/tests and ScaleFull for the numbers
// recorded in EXPERIMENTS.md. All experiments are deterministic given their
// built-in seeds.
package experiments

import (
	"fmt"
	"sort"

	"asyncagree/internal/sim"
	"asyncagree/internal/stats"
	"asyncagree/internal/stream"
)

// Scale selects experiment effort.
type Scale int

const (
	// ScaleQuick runs reduced trial counts for tests.
	ScaleQuick Scale = iota + 1
	// ScaleFull runs the EXPERIMENTS.md configuration.
	ScaleFull
)

// Result is the output of one experiment.
type Result struct {
	// ID is the stable experiment identifier (e.g. "E2").
	ID string
	// Title restates the paper claim under test.
	Title string
	// Table holds the regenerated rows.
	Table *stats.Table
	// Notes carry fits, pass/fail verdicts, and caveats.
	Notes []string
	// Pass reports whether the paper's qualitative claim held.
	Pass bool
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) (Result, error)
}

// All returns the registry in ID order.
func All() []Experiment {
	exps := []Experiment{
		{ID: "E1", Title: "Theorem 4: measure-one correctness and termination, t < n/6", Run: runE1},
		{ID: "E2", Title: "Section 3: exponential expected windows under split-vote adversary", Run: runE2},
		{ID: "E3", Title: "Theorem 4: threshold feasibility region (t < n/6)", Run: runE3},
		{ID: "E4", Title: "Lemma 9: Talagrand inequality on product spaces", Run: runE4},
		{ID: "E5", Title: "Lemma 11: Hamming separation of decision sets Z0_0, Z0_1", Run: runE5},
		{ID: "E6", Title: "Lemma 14: interpolated distribution avoids both sets", Run: runE6},
		{ID: "E7", Title: "Theorem 5: survival probability of the stalling adversary", Run: runE7},
		{ID: "E8", Title: "Theorem 17: exponential message chains for Ben-Or under crashes", Run: runE8},
		{ID: "E9", Title: "Validity fast path: unanimous inputs decide immediately", Run: runE9},
		{ID: "E10", Title: "Introduction: committee algorithm vs adaptive adversary", Run: runE10},
		{ID: "E11", Title: "Introduction: Paxos terminates only under benign scheduling", Run: runE11},
		{ID: "E12", Title: "Theorem 4 proof: no conflicting deterministic adoptions (2*T3 > n)", Run: runE12},
		{ID: "E13", Title: "Lemma 13 (k=1): Hamming separation of the Monte-Carlo Z^1 sets", Run: runE13},
		{ID: "E14", Title: "Scheduler sensitivity: E8/E9 decision-round curves across delivery disciplines", Run: runE14},
		{ID: "E15", Title: "Scaling curves: decision latency and stall behavior vs n under the sharded window core", Run: runE15},
		{ID: "E16", Title: "Adversary search: optimized stall frontier vs the replayed Theorem 5 construction", Run: runE16},
	}
	sort.Slice(exps, func(i, j int) bool { return idLess(exps[i].ID, exps[j].ID) })
	return exps
}

func idLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

// tally folds the counters several drivers read out of a run: it is the
// whole aggregate of a trial battery, filled by a parallel.Stream fold in
// trial order exactly as a serial loop would fill it.
type tally struct {
	// decided counts trials in which every live honest processor decided;
	// windows summarizes their lengths.
	decided int
	windows stream.Summary
	// unsafe counts trials that broke agreement or validity.
	unsafe int
	// maxFirst is the latest first-decision window of any trial.
	maxFirst int
}

// fold is add in the shape of a parallel.Stream consumer, for drivers whose
// whole fold is the tally.
func (t *tally) fold(_ int, res sim.RunResult) error {
	t.add(res)
	return nil
}

func (t *tally) add(res sim.RunResult) {
	if res.AllDecided {
		t.decided++
		t.windows.AddInt(res.Windows)
	}
	if !res.Agreement || !res.Validity {
		t.unsafe++
	}
	if res.FirstDecision > t.maxFirst {
		t.maxFirst = res.FirstDecision
	}
}

// verdict formats a pass/fail note.
func verdict(pass bool, claim string) string {
	if pass {
		return "PASS: " + claim
	}
	return "FAIL: " + claim
}
