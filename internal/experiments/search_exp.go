package experiments

import (
	"fmt"

	"asyncagree/internal/lowerbound"
	"asyncagree/internal/registry"
	"asyncagree/internal/search"
	"asyncagree/internal/stats"
)

// runE16 compares the searched adversary frontier against the paper's
// replayed Theorem 5 construction at equal per-candidate trial budgets: the
// internal/search driver explores the (adversary knobs × scheduler) space
// for the core algorithm, and its best candidate per size must stall at
// least as long as the historical split-vote replay — the replay point is
// itself in the search's coarse grid, so search can only match or beat it.
// The table quantifies the gap either way.
func runE16(scale Scale) (Result, error) {
	ns := []int{12}
	trials := 2
	maxW := 2000
	opts := search.Options{
		Algorithm:          "core",
		Input:              "split",
		Adversaries:        []string{"splitvote", "silence", "random"},
		Schedulers:         []string{"adversary"},
		TrialsPerCandidate: trials,
		MaxWindows:         maxW,
		TopK:               3,
		Refinements:        1,
		Generations:        1,
		Population:         4,
		Seed:               16,
	}
	if scale == ScaleFull {
		ns = []int{12, 16, 24}
		trials = 5
		maxW = 20000
		opts.TrialsPerCandidate = trials
		opts.MaxWindows = maxW
		opts.Refinements = 2
		opts.Generations = 3
		opts.Population = 8
	}
	opts.Sizes = nil
	for _, n := range ns {
		t := n / 8
		if t < 1 {
			t = 1
		}
		opts.Sizes = append(opts.Sizes, registry.Size{N: n, T: t})
	}

	rep, err := search.Run(opts, search.RunOptions{})
	if err != nil {
		return Result{}, err
	}

	table := stats.NewTable("n", "t", "trials", "replay-mean", "search-best", "candidate", "stage", "gain")
	pass := rep.Healthy()
	notes := []string{fmt.Sprintf("search: %d evaluations, %d trials, frontier width %d",
		rep.Evals, rep.TrialsSpent, opts.TopK)}
	for i, size := range opts.Sizes {
		// Replay baseline: the same n, t = floor(n/8), seeds 1..trials, and
		// censoring the search evaluator uses.
		series, err := lowerbound.StallSeries(ns[i:i+1], 1.0/8, trials, maxW)
		if err != nil {
			return Result{}, err
		}
		replay := series[0].Summary.Mean()
		best, ok := rep.Best(size)
		if !ok {
			return Result{}, fmt.Errorf("E16: no frontier entry for size %s", size)
		}
		gain := best.MeanStall - replay
		if best.MeanStall < replay {
			pass = false
		}
		table.AddRow(size.N, size.T, trials, replay, best.MeanStall, best.Candidate.Key(), best.Stage, gain)
		notes = append(notes, fmt.Sprintf("%s: searched best %s stalls %.1f vs replayed split-vote %.1f (gain %+.1f)",
			size, best.Candidate.Key(), best.MeanStall, replay, gain))
	}
	notes = append(notes, verdict(pass, "searched frontier >= replayed Theorem 5 construction at equal trial budgets"))
	return Result{
		ID:    "E16",
		Title: "Adversary search: optimized stall frontier vs the replayed Theorem 5 construction",
		Table: table,
		Notes: notes,
		Pass:  pass,
	}, nil
}
