package experiments

import (
	"fmt"

	"asyncagree/internal/parallel"
	"asyncagree/internal/registry"
	"asyncagree/internal/sim"
	"asyncagree/internal/stats"
)

// runE14 measures scheduler sensitivity: the E8/E9 decision-round curves
// re-run under every registered delivery scheduler. Two claims are checked:
//
//   - The validity fast path (E9) is delivery-independent: Definition 1
//     admits >= n-t senders per receiver, the decision thresholds fit
//     inside n-t, so unanimous inputs decide within the first round under
//     every discipline.
//   - Safety never depends on the discipline (any scheduler is just the
//     delivery half of a legal adversary), while the windows-to-decision
//     curve for contested (split) inputs does move with it — the axis the
//     lower bound turns.
func runE14(scale Scale) (Result, error) {
	trials := 6
	maxW := 4000
	if scale == ScaleFull {
		trials = 30
		maxW = 40000
	}

	type config struct {
		name string
		n, t int
	}
	configs := []config{
		{name: "core", n: 12, t: 1},
		{name: "benor", n: 9, t: 2},
	}

	table := stats.NewTable("algorithm", "scheduler", "inputs", "trials",
		"decided", "mean-windows", "max-first-decision")
	pass := true
	var notes []string
	for _, cfg := range configs {
		splitMeans := map[string]float64{}
		for _, sched := range registry.SchedulerNames() {
			ok, err := registry.SchedulerCompatible(sched, "full", cfg.name,
				registry.Params{N: cfg.n, T: cfg.t})
			if err != nil {
				return Result{}, err
			}
			if !ok {
				continue
			}
			for _, pattern := range []string{"ones", "split"} {
				var all tally
				err := parallel.Stream(trials,
					func(trial int) (sim.RunResult, error) {
						seed := uint64(trial + 1)
						inputs, err := registry.Inputs(pattern, cfg.n, seed)
						if err != nil {
							return sim.RunResult{}, err
						}
						p := registry.Params{N: cfg.n, T: cfg.t, Seed: seed, Inputs: inputs}
						return registry.RunPooledTrial(cfg.name, "full", sched, p, maxW)
					},
					all.fold)
				if err != nil {
					return Result{}, err
				}
				if all.unsafe > 0 {
					pass = false
				}
				decided, maxFirst := all.decided, all.maxFirst
				mean := all.windows.Mean()
				// A discipline with zero decided trials has no meaningful
				// mean (an empty stream.Summary yields 0, which would win "fastest");
				// leave it out of the curve note — the table row and the
				// failed verdict already record it.
				if pattern == "split" && decided > 0 {
					splitMeans[sched] = mean
				}
				// Unanimous inputs must decide under every discipline, in
				// the first window for the core algorithm (one message
				// wave of >= n-t unanimous reports crosses T2).
				if pattern == "ones" {
					if decided != trials {
						pass = false
					}
					if cfg.name == "core" && maxFirst > 0 {
						pass = false
					}
				}
				if decided < trials {
					pass = false // every discipline here must terminate
				}
				table.AddRow(cfg.name, sched, pattern, trials,
					fmt.Sprintf("%d/%d", decided, trials), mean, maxFirst)
			}
		}
		// Ties resolve to the first name in registration order so the
		// note, like the table, is deterministic.
		lo, hi := "", ""
		for _, sched := range registry.SchedulerNames() {
			m, ok := splitMeans[sched]
			if !ok {
				continue
			}
			if lo == "" || m < splitMeans[lo] {
				lo = sched
			}
			if hi == "" || m > splitMeans[hi] {
				hi = sched
			}
		}
		if lo != "" {
			notes = append(notes, fmt.Sprintf(
				"%s split-input curve: fastest discipline %s (%.2f windows), slowest %s (%.2f windows)",
				cfg.name, lo, splitMeans[lo], hi, splitMeans[hi]))
		}
	}
	notes = append(notes, verdict(pass,
		"unanimous inputs decide in the first round under every delivery discipline; safety never moves with the scheduler"))
	return Result{
		ID:    "E14",
		Title: "Scheduler sensitivity: E8/E9 decision-round curves across delivery disciplines",
		Table: table,
		Notes: notes,
		Pass:  pass,
	}, nil
}
