package experiments

import (
	"fmt"

	"asyncagree/internal/adversary"
	"asyncagree/internal/core"
	"asyncagree/internal/parallel"
	"asyncagree/internal/registry"
	"asyncagree/internal/sim"
	"asyncagree/internal/stats"
)

// runE1 stresses Theorem 4: the core algorithm with default thresholds and
// t < n/6 must never violate agreement or validity, and must terminate, for
// every adversary in the battery.
func runE1(scale Scale) (Result, error) {
	trials := 30
	maxWindows := 40000
	sizes := [][2]int{{12, 1}, {18, 2}, {24, 3}}
	if scale == ScaleFull {
		trials = 200
		maxWindows = 400000
		sizes = append(sizes, [2]int{36, 5})
	}

	table := stats.NewTable("n", "t", "adversary", "trials", "agree-viol", "valid-viol", "terminated", "mean-windows")
	pass := true
	for _, nt := range sizes {
		n, t := nt[0], nt[1]
		// The battery is the registry's core-compatible reset/stall
		// adversaries (the "subsets" chaos scheduler is omitted: it is
		// strictly weaker than "random" here).
		for _, advName := range []string{"full", "random", "storm", "splitvote"} {
			var all tally
			agreeViol, validViol := 0, 0
			err := parallel.Stream(trials,
				func(trial int) (sim.RunResult, error) {
					seed := uint64(trial + 1)
					p := registry.Params{N: n, T: t, Seed: seed, Inputs: patternInputs(n, seed)}
					return registry.RunPooledTrial("core", advName, "adversary", p, maxWindows)
				},
				func(_ int, res sim.RunResult) error {
					all.add(res)
					if !res.Agreement {
						agreeViol++
					}
					if !res.Validity {
						validViol++
					}
					return nil
				})
			if err != nil {
				return Result{}, err
			}
			if all.unsafe > 0 || all.decided < trials {
				pass = false
			}
			table.AddRow(n, t, advName, trials, agreeViol, validViol,
				fmt.Sprintf("%d/%d", all.decided, trials), all.windows.Mean())
		}
	}
	return Result{
		ID:    "E1",
		Title: "Theorem 4: measure-one correctness and termination, t < n/6",
		Table: table,
		Notes: []string{verdict(pass, "0 safety violations and universal termination across the adversary battery")},
		Pass:  pass,
	}, nil
}

// patternInputs varies input patterns across seeds, cycling through the
// registry's named generators: unanimous 0, unanimous 1, split, and
// seed-dependent blocks.
func patternInputs(n int, seed uint64) []sim.Bit {
	names := [4]string{"zeros", "ones", "split", "blocks"}
	in, err := registry.Inputs(names[seed%4], n, seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: built-in input generator %q missing: %v", names[seed%4], err))
	}
	return in
}

// runE3 maps Theorem 4's feasibility region: for each t/n ratio, do valid
// thresholds exist?
func runE3(Scale) (Result, error) {
	table := stats.NewTable("n", "t", "t/n", "feasible", "T1", "T2", "T3")
	pass := true
	for _, n := range []int{12, 24, 48, 96} {
		for _, t := range []int{0, n / 12, n/6 - 1, n / 6, n / 4, n / 3} {
			th, err := core.DefaultThresholds(n, t)
			feasible := err == nil
			wantFeasible := 6*t < n
			if feasible != wantFeasible {
				pass = false
			}
			if feasible {
				table.AddRow(n, t, float64(t)/float64(n), feasible, th.T1, th.T2, th.T3)
			} else {
				table.AddRow(n, t, float64(t)/float64(n), feasible, "-", "-", "-")
			}
		}
	}
	return Result{
		ID:    "E3",
		Title: "Theorem 4: threshold feasibility region (t < n/6)",
		Table: table,
		Notes: []string{verdict(pass, "default thresholds exist exactly when t < n/6")},
		Pass:  pass,
	}, nil
}

// runE9 checks the validity fast path on every algorithm: unanimous inputs
// decide immediately (core: first window; Ben-Or: round 1; Bracha: round 1).
func runE9(scale Scale) (Result, error) {
	trials := 5
	if scale == ScaleFull {
		trials = 25
	}
	table := stats.NewTable("algorithm", "n", "t", "input", "trials", "all-decided", "max-first-decision-window")
	pass := true

	type config struct {
		name string
		n, t int
		maxW int
	}
	configs := []config{
		{name: "core", n: 12, t: 1, maxW: 5},
		{name: "benor", n: 9, t: 2, maxW: 6},
		{name: "bracha", n: 7, t: 2, maxW: 60},
	}
	for _, cfg := range configs {
		for _, v := range []sim.Bit{0, 1} {
			var all tally
			err := parallel.Stream(trials,
				func(trial int) (sim.RunResult, error) {
					p := registry.Params{
						N: cfg.n, T: cfg.t, Seed: uint64(trial + 1),
						Inputs: registry.UnanimousInputs(cfg.n, v),
					}
					return registry.RunPooledTrial(cfg.name, "full", "adversary", p, cfg.maxW)
				},
				all.fold)
			if err != nil {
				return Result{}, err
			}
			// Inputs are unanimous v, so validity already pins the decision.
			if all.decided != trials || all.unsafe > 0 {
				pass = false
			}
			table.AddRow(cfg.name, cfg.n, cfg.t, v, trials,
				fmt.Sprintf("%d/%d", all.decided, trials), all.maxFirst)
		}
	}
	return Result{
		ID:    "E9",
		Title: "Validity fast path: unanimous inputs decide immediately",
		Table: table,
		Notes: []string{verdict(pass, "all algorithms decide the unanimous input within their first round")},
		Pass:  pass,
	}, nil
}

// runE12 re-verifies the termination mechanism of Theorem 4's proof: in no
// window can two processors deterministically adopt conflicting values
// (needs 2*T3 > n).
func runE12(scale Scale) (Result, error) {
	trials := 10
	windows := 400
	if scale == ScaleFull {
		trials = 50
		windows = 2000
	}
	table := stats.NewTable("n", "t", "T3", "trials", "windows-observed", "conflicting-windows")
	pass := true
	for _, nt := range [][2]int{{12, 1}, {24, 3}} {
		n, t := nt[0], nt[1]
		th, err := core.DefaultThresholds(n, t)
		if err != nil {
			return Result{}, err
		}
		conflicts, observed := 0, 0
		err = parallel.Stream(trials,
			func(trial int) ([2]int, error) {
				c, w, err := countConflictWindows(n, t, th, uint64(trial+1), windows)
				return [2]int{c, w}, err
			},
			func(_ int, cw [2]int) error {
				conflicts += cw[0]
				observed += cw[1]
				return nil
			})
		if err != nil {
			return Result{}, err
		}
		if conflicts > 0 {
			pass = false
		}
		table.AddRow(n, t, th.T3, trials, observed, conflicts)
	}
	return Result{
		ID:    "E12",
		Title: "Theorem 4 proof: no conflicting deterministic adoptions (2*T3 > n)",
		Table: table,
		Notes: []string{verdict(pass, "zero windows with both values deterministically adopted")},
		Pass:  pass,
	}, nil
}

func countConflictWindows(n, t int, th core.Thresholds, seed uint64, maxWindows int) (conflicts, observed int, err error) {
	s, err := sim.New(sim.Config{
		N: n, T: t, Seed: seed,
		Inputs:     patternInputs(n, 2), // split
		NewProcess: core.NewFactory(n, t, th),
	})
	if err != nil {
		return 0, 0, err
	}
	counts := make(map[sim.ProcID]*[2]int)
	s.OnEvent = func(ev sim.Event) {
		switch ev.Kind {
		case sim.EvDeliver:
			if _, v, ok := core.ExtractVote(ev.Msg); ok {
				c := counts[ev.Proc]
				if c == nil {
					c = new([2]int)
					counts[ev.Proc] = c
				}
				c[v]++
			}
		case sim.EvWindow:
			observed++
			det := [2]bool{}
			for _, c := range counts {
				for v := 0; v < 2; v++ {
					if c[v] >= th.T3 {
						det[v] = true
					}
				}
			}
			if det[0] && det[1] {
				conflicts++
			}
			counts = make(map[sim.ProcID]*[2]int)
		}
	}
	if _, err := s.RunWindows(adversary.NewRandomWindows(seed+99, 0.4, t), maxWindows); err != nil {
		return 0, 0, err
	}
	return conflicts, observed, nil
}
