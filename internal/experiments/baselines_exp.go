package experiments

import (
	"fmt"

	"asyncagree/internal/adversary"
	"asyncagree/internal/bracha"
	"asyncagree/internal/committee"
	"asyncagree/internal/parallel"
	"asyncagree/internal/paxos"
	"asyncagree/internal/registry"
	"asyncagree/internal/sim"
	"asyncagree/internal/stats"
	"asyncagree/internal/stream"
)

// runE8 measures message-chain length at decision for Ben-Or (forgetful +
// fully communicative) under the split-vote crash-model adversary —
// Theorem 17's running-time measure.
func runE8(scale Scale) (Result, error) {
	ns := []int{9, 13, 17}
	trials := 10
	maxW := 200000
	if scale == ScaleFull {
		ns = []int{9, 13, 17, 21, 25}
		trials = 30
		maxW = 2000000
	}
	table := stats.NewTable("n", "t", "trials", "mean-chain", "median-chain", "max-chain")
	var xs, ys []float64
	for _, n := range ns {
		t := n / 4
		var chains stream.Summary
		quantiles := stream.NewReservoir(0)
		err := parallel.Stream(trials,
			func(trial int) (int, error) {
				p := registry.Params{N: n, T: t, Seed: uint64(trial + 1), Inputs: registry.SplitInputs(n)}
				res, err := registry.RunPooledTrial("benor", "splitvote", "adversary", p, maxW)
				if err != nil {
					return 0, err
				}
				if res.FirstDecision < 0 {
					return maxW, nil // censored
				}
				return res.MaxChainDepth, nil
			},
			func(_ int, chain int) error {
				chains.AddInt(chain)
				quantiles.AddInt(chain)
				return nil
			})
		if err != nil {
			return Result{}, err
		}
		sum := stats.FromStream(&chains, quantiles)
		table.AddRow(n, t, trials, sum.Mean, sum.Median, sum.Max)
		xs = append(xs, float64(n))
		ys = append(ys, sum.Mean)
	}
	fit, ok := stats.FitExponential(xs, ys)
	notes := []string{"Ben-Or is forgetful and fully communicative (Definitions 15, 16), so Theorem 17 applies"}
	pass := ok && fit.Alpha > 0 && ys[0] < ys[len(ys)-1]
	if ok {
		notes = append(notes, fmt.Sprintf("fit: mean-chain ~ %.3g * exp(%.4f * n), R^2 = %.3f", fit.C, fit.Alpha, fit.R2))
	}
	notes = append(notes, verdict(pass, "message-chain length at decision grows exponentially in n"))
	return Result{
		ID:    "E8",
		Title: "Theorem 17: exponential message chains for Ben-Or under crashes",
		Table: table,
		Notes: notes,
		Pass:  pass,
	}, nil
}

// runE10 reproduces the introduction's separation: the committee algorithm
// is fast against non-adaptive corruption but collapses against an adaptive
// adversary that corrupts the final committee, while Bracha (slow) shrugs
// both off.
func runE10(scale Scale) (Result, error) {
	trials := 6
	maxW := 6000
	if scale == ScaleFull {
		trials = 30
		maxW = 20000
	}
	const n = 27
	table := stats.NewTable("algorithm", "attack", "trials", "decided", "agree+valid", "mean-windows")
	pass := true

	run := func(alg, attack string, seed uint64) (sim.RunResult, error) {
		var s *sim.System
		var err error
		tt := 3 // non-adaptive budget; adaptive uses GroupT+1 = 3 as well
		switch alg {
		case "committee":
			s, err = registry.NewSystem("committee", registry.Params{
				N: n, T: tt, Seed: seed, Inputs: registry.UnanimousInputs(n, 1),
			})
		case "bracha":
			s, err = registry.NewSystem("bracha", registry.Params{
				N: n, T: 8, Seed: seed, Inputs: registry.UnanimousInputs(n, 1),
			})
		default:
			return sim.RunResult{}, fmt.Errorf("bad alg %q", alg)
		}
		if err != nil {
			return sim.RunResult{}, err
		}
		switch attack {
		case "none":
		case "non-adaptive":
			// Corrupt tt processors chosen before the execution.
			for i := 0; i < tt; i++ {
				v := sim.ProcID((int(seed)*7 + i*11) % n)
				for s.Corrupted(v) {
					v = (v + 1) % sim.ProcID(n)
				}
				if err := s.Corrupt(v, bracha.NewSilent(v)); err != nil {
					return sim.RunResult{}, err
				}
			}
		}
		adaptiveArmed := attack == "adaptive"
		corrupted := !adaptiveArmed
		for w := 0; w < maxW && !s.AllDecided(); w++ {
			if err := s.ApplyWindowWith(adversary.FullDelivery{}); err != nil {
				return sim.RunResult{}, err
			}
			if corrupted {
				continue
			}
			// Adaptive strike: wait for the final committee, then silence
			// enough of it to break the group tolerance.
			p0, ok := s.Proc(0).(*committee.Proc)
			if !ok {
				corrupted = true // bracha has no committee to strike; attack is vacuous
				continue
			}
			final := p0.FinalCommittee()
			if final == nil {
				continue
			}
			for i := 0; i < 3 && i < len(final); i++ {
				if err := s.Corrupt(final[i], bracha.NewSilent(final[i])); err != nil {
					return sim.RunResult{}, err
				}
			}
			corrupted = true
		}
		return s.Result(), nil
	}

	for _, alg := range []string{"committee", "bracha"} {
		for _, attack := range []string{"none", "non-adaptive", "adaptive"} {
			if alg == "bracha" && attack == "adaptive" {
				continue // no committee to strike; covered by non-adaptive
			}
			// Inputs are unanimous 1, so validity already pins the decision.
			var o tally
			err := parallel.Stream(trials,
				func(trial int) (sim.RunResult, error) { return run(alg, attack, uint64(trial+1)) },
				o.fold)
			if err != nil {
				return Result{}, err
			}
			table.AddRow(alg, attack, trials,
				fmt.Sprintf("%d/%d", o.decided, trials),
				fmt.Sprintf("%d/%d", trials-o.unsafe, trials),
				o.windows.Mean())
			switch {
			case alg == "committee" && attack == "adaptive" && o.decided == trials:
				pass = false // the adaptive attack must hurt
			case alg == "committee" && attack == "none" && o.decided < trials:
				pass = false // fault-free committee runs must finish
			case alg == "bracha" && o.decided < trials:
				pass = false // bracha must always finish here
			}
		}
	}
	return Result{
		ID:    "E10",
		Title: "Introduction: committee algorithm vs adaptive adversary",
		Table: table,
		Notes: []string{verdict(pass, "committees survive non-adaptive faults but an adaptive strike on the final committee blocks termination; Bracha is unaffected")},
		Pass:  pass,
	}, nil
}

// runE11 contrasts Paxos under fair scheduling (decides) with the dueling-
// proposers schedule (livelocks), the introduction's FLP workaround remark.
func runE11(scale Scale) (Result, error) {
	trials := 5
	budget := int64(60000)
	if scale == ScaleFull {
		trials = 20
		budget = 300000
	}
	const n = 5
	table := stats.NewTable("schedule", "proposers", "trials", "decided", "agree+valid")
	pass := true
	for _, cfg := range []struct {
		name      string
		proposers []sim.ProcID
		dueling   bool
	}{
		{"fair lockstep", []sim.ProcID{0}, false},
		{"fair lockstep", []sim.ProcID{0, 1}, false},
		{"dueling", []sim.ProcID{0, 1}, true},
	} {
		var all tally
		err := parallel.Stream(trials,
			func(trial int) (sim.RunResult, error) {
				s, err := registry.NewSystem("paxos", registry.Params{
					N: n, T: 2, Seed: uint64(trial + 1), Inputs: registry.SplitInputs(n),
					Proposers: cfg.proposers,
				})
				if err != nil {
					return sim.RunResult{}, err
				}
				var sched sim.StepAdversary
				if cfg.dueling {
					sched = paxos.NewDuelScheduler()
				} else {
					sched = adversary.NewLockstep()
				}
				return s.RunSteps(sched, budget)
			},
			all.fold)
		if err != nil {
			return Result{}, err
		}
		decided, safe := all.decided, trials-all.unsafe
		table.AddRow(cfg.name, len(cfg.proposers), trials,
			fmt.Sprintf("%d/%d", decided, trials),
			fmt.Sprintf("%d/%d", safe, trials))
		if safe < trials {
			pass = false // safety must be unconditional
		}
		if cfg.dueling && decided > 0 {
			pass = false // the duel must livelock
		}
		if !cfg.dueling && decided < trials {
			pass = false // fair scheduling must decide
		}
	}
	return Result{
		ID:    "E11",
		Title: "Introduction: Paxos terminates only under benign scheduling",
		Table: table,
		Notes: []string{verdict(pass, "fair schedules decide, dueling schedule livelocks, safety never violated")},
		Pass:  pass,
	}, nil
}
