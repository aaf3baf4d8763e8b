package asyncagree_test

import (
	"fmt"
	"log"

	"asyncagree"
	"asyncagree/internal/bracha"
	"asyncagree/internal/committee"
	"asyncagree/internal/lowerbound"
	"asyncagree/internal/stats"
	"asyncagree/internal/stream"
)

// These examples are the paper's headline behaviours, run on the
// asyncagree facade. Each is deterministic, so go test holds its output.

// Run the paper's reset-tolerant agreement algorithm (Section 3) on 24
// processors with split inputs under a benign schedule, then under a
// chaotic adversary with resets, and print what happened.
func Example_quickstart() {
	const n, t = 24, 3 // t < n/6, the Theorem 4 regime

	cfg := asyncagree.Config{
		Algorithm: asyncagree.AlgorithmCore,
		N:         n,
		T:         t,
		Inputs:    asyncagree.SplitInputs(n),
		Seed:      42,
	}

	// Adversaries are looked up by name in the shared scenario registry
	// ("full", "subsets", "random", "storm", "silence", "splitvote");
	// NewAdversary returns fresh per-run state tuned to cfg's algorithm.

	// 1. Benign run: every message delivered, no faults.
	res := runUnder(cfg, "full", 100000)
	fmt.Printf("benign schedule:   decided %v in %d windows (agreement=%v validity=%v)\n",
		res.Decision, res.Windows, res.Agreement, res.Validity)

	// 2. Chaos run: random (n-t)-subset deliveries, random memory resets.
	res = runUnder(cfg, "random", 100000)
	fmt.Printf("chaotic adversary: decided %v in %d windows (agreement=%v validity=%v)\n",
		res.Decision, res.Windows, res.Agreement, res.Validity)

	// 3. Unanimous inputs decide in the very first acceptable window.
	cfg.Inputs = asyncagree.UnanimousInputs(n, 1)
	res = runUnder(cfg, "storm", 10)
	fmt.Printf("unanimous inputs:  decided %v with first decision in window %d despite a reset storm\n",
		res.Decision, res.FirstDecision)

	// Output:
	// benign schedule:   decided 0 in 124 windows (agreement=true validity=true)
	// chaotic adversary: decided 1 in 290 windows (agreement=true validity=true)
	// unanimous inputs:  decided 1 with first decision in window 0 despite a reset storm
}

// runUnder runs cfg against the named adversary for at most maxWindows
// windows.
func runUnder(cfg asyncagree.Config, adversary string, maxWindows int) asyncagree.RunResult {
	adv, err := asyncagree.NewAdversary(adversary, cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := asyncagree.Run(cfg, adv, maxWindows)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// The introduction's separation, run live. The Kapron et al.-style
// committee algorithm finishes fast and survives non-adaptive Byzantine
// faults, but an adaptive adversary simply waits until the final committee
// is known and silences it, after which nobody can decide. Bracha's
// algorithm (slow, optimal resilience) is unbothered by the same strike
// because there is no small committee to decapitate.
func Example_committee() {
	// Fault-free committee run.
	runCommittee("fault-free", nil, false)

	// Non-adaptive: 3 silent Byzantine processors fixed before the run.
	runCommittee("non-adaptive (3 silent)", []asyncagree.ProcID{4, 13, 22}, false)

	// Adaptive: wait for the final committee, then silence 3 of it.
	runCommittee("adaptive strike on final committee", nil, true)

	// Output:
	// fault-free:                            decided=27/27 windows=21 agreement=true
	//
	// non-adaptive (3 silent):               decided=24/27 windows=21 agreement=true
	//
	//   [adaptive strike on final committee] final committee known at window 10: [6 7 8 14 15 17 20 21 26] — striking now
	// adaptive strike on final committee:    decided=0/27 windows=4000 agreement=true
}

// runCommittee runs the committee algorithm on 27 processors with the
// preCorrupt processors silent from the start and, if adaptive, three
// members of the final committee silenced once it is known.
func runCommittee(label string, preCorrupt []asyncagree.ProcID, adaptive bool) {
	const n = 27
	cfg := asyncagree.Config{
		Algorithm: asyncagree.AlgorithmCommittee,
		N:         n, T: 3,
		Inputs: asyncagree.UnanimousInputs(n, 1),
		Seed:   5,
	}
	sys, err := asyncagree.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range preCorrupt {
		if err := sys.Corrupt(v, bracha.NewSilent(v)); err != nil {
			log.Fatal(err)
		}
	}
	adv, err := asyncagree.NewAdversary("full", cfg)
	if err != nil {
		log.Fatal(err)
	}
	struck := false
	for w := 0; w < 4000 && !sys.AllDecided(); w++ {
		if err := sys.ApplyWindowWith(adv); err != nil {
			log.Fatal(err)
		}
		if !adaptive || struck {
			continue
		}
		p0, ok := sys.Proc(0).(*committee.Proc)
		if !ok {
			log.Fatal("unexpected process type")
		}
		final := p0.FinalCommittee()
		if final == nil {
			continue
		}
		fmt.Printf("  [%s] final committee known at window %d: %v — striking now\n", label, w, final)
		for i := 0; i < 3 && i < len(final); i++ {
			if err := sys.Corrupt(final[i], bracha.NewSilent(final[i])); err != nil {
				log.Fatal(err)
			}
		}
		struck = true
	}
	res := sys.Result()
	fmt.Printf("%-38s decided=%d/%d windows=%d agreement=%v\n\n",
		label+":", sys.DecidedCount(), n, res.Windows, res.Agreement)
}

// Section 5 of the paper, live. Ben-Or's protocol is "forgetful" and "fully
// communicative" (Definitions 15 and 16), so Theorem 17 applies: against a
// classical crash-model adversary, its running time, measured as the
// longest message chain before a decision, is exponential in n.
//
// The adversary needs no crashes at all here: pure scheduling (showing each
// processor a near-even split of the round's reports) already forces fresh
// coin flips round after round. This example sweeps n and prints the
// measured chain lengths.
func Example_crashChains() {
	fmt.Println("Ben-Or vs split-vote crash-model adversary (split inputs):")
	fmt.Println()
	fmt.Println("n    t   mean-chain   median   max")

	var xs, ys []float64
	for _, n := range []int{9, 13, 17, 21} {
		t := n / 4
		var chains stream.Summary
		quantiles := stream.NewReservoir(0)
		for seed := uint64(1); seed <= 12; seed++ {
			cfg := asyncagree.Config{
				Algorithm: asyncagree.AlgorithmBenOr,
				N:         n, T: t,
				Inputs: asyncagree.SplitInputs(n),
				Seed:   seed,
			}
			sys, err := asyncagree.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			// The registry tunes the split-vote adversary to Ben-Or's
			// vote classifier and floor(n/2) cap, fresh state per run.
			adv, err := asyncagree.NewAdversary("splitvote", cfg)
			if err != nil {
				log.Fatal(err)
			}
			res, err := sys.RunWindows(adv, 500000)
			if err != nil {
				log.Fatal(err)
			}
			if !res.Agreement || !res.Validity {
				log.Fatal("safety violated — impossible for honest Ben-Or")
			}
			chains.AddInt(res.MaxChainDepth)
			quantiles.AddInt(res.MaxChainDepth)
		}
		fmt.Printf("%-4d %-3d %-12.1f %-8.1f %.0f\n", n, t, chains.Mean(), quantiles.Quantile(0.5), chains.Max())
		xs = append(xs, float64(n))
		ys = append(ys, chains.Mean())
	}

	if fit, ok := stats.FitExponential(xs, ys); ok {
		fmt.Printf("\nfit: mean-chain ~ %.3g * exp(%.4f * n)   (R^2 = %.3f)\n", fit.C, fit.Alpha, fit.R2)
	}
	fmt.Println("\nTheorem 17: for any forgetful, fully communicative algorithm this growth")
	fmt.Println("is unavoidable — C*e^{alpha*n} message-chain length with probability >= 1/2.")

	// Output:
	// Ben-Or vs split-vote crash-model adversary (split inputs):
	//
	// n    t   mean-chain   median   max
	// 9    2   13.2         14.0     26
	// 13   3   26.0         16.0     78
	// 17   4   25.8         22.0     70
	// 21   5   45.3         45.0     148
	//
	// fit: mean-chain ~ 6.28 * exp(0.0926 * n)   (R^2 = 0.893)
	//
	// Theorem 17: for any forgetful, fully communicative algorithm this growth
	// is unavoidable — C*e^{alpha*n} message-chain length with probability >= 1/2.
}

// The other side of the paper: against a full-information adversary,
// agreement with perfect safety is exponentially slow (Section 3's closing
// argument, made inevitable by Theorem 5).
//
// The split-vote adversary shows every processor an approximate split of
// the round's votes, forcing everyone to flip fresh coins; it loses only
// when the coins come out so lopsided that hiding the majority no longer
// fits within the fault budget t. This example sweeps n at fixed t/n and
// prints the measured mean windows-to-decision with an exponential fit.
func Example_expTime() {
	// Small demo of the mechanism at one size first.
	cfg := asyncagree.Config{
		Algorithm: asyncagree.AlgorithmCore,
		N:         24, T: 3,
		Inputs: asyncagree.SplitInputs(24),
		Seed:   1,
	}
	res := runUnder(cfg, "splitvote", 1000000)
	fmt.Printf("n=24 t=3 split inputs vs split-vote adversary: %d windows to first decision\n\n",
		res.FirstDecision)

	// The sweep: mean stall vs n (deterministic given seeds).
	ns := []int{8, 12, 16, 20, 24, 28}
	series, err := lowerbound.StallSeries(ns, 1.0/8, 15, 2000000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("n    t   mean-windows   median   max")
	for _, p := range series {
		fmt.Printf("%-4d %-3d %-14.1f %-8.1f %.0f\n",
			p.N, p.T, p.Summary.Mean(), p.Quantiles.Quantile(0.5), p.Summary.Max())
	}
	if fit, ok := lowerbound.FitGrowth(series); ok {
		fmt.Printf("\nexponential fit: mean ~ %.3g * exp(%.4f * n)   (R^2 = %.3f)\n", fit.C, fit.Alpha, fit.R2)
		fmt.Println("Theorem 5 says this shape is unavoidable for any algorithm with")
		fmt.Println("measure-one correctness and termination against the strongly adaptive adversary.")
	}

	// Output:
	// n=24 t=3 split inputs vs split-vote adversary: 49 windows to first decision
	//
	// n    t   mean-windows   median   max
	// 8    1   7.0            7.0      17
	// 12   1   57.4           33.0     160
	// 16   2   37.5           28.0     140
	// 20   2   203.6          170.0    725
	// 24   3   137.7          123.0    341
	// 28   3   1494.1         1283.0   4122
	//
	// exponential fit: mean ~ 1.69 * exp(0.2224 * n)   (R^2 = 0.853)
	// Theorem 5 says this shape is unavoidable for any algorithm with
	// measure-one correctness and termination against the strongly adaptive adversary.
}

// Delivery scheduling as a first-class scenario axis. The same algorithm
// under the same adversary behaves very differently depending on which
// ≥ n−t senders each acceptable window admits: the knob the Lewko–Lewko
// lower bound turns. This example runs the core algorithm under the benign
// adversary three times, swapping only the delivery scheduler:
//
//   - "full":    every message delivered (the fast path);
//   - "laggard": a rotating t-subset is starved for an epoch of windows,
//     then the laggard set rotates — bounded unfairness;
//   - "seeded":  an independent random (n−t)-subset per receiver per
//     window — chaos delivery, reproducible from the seed.
//
// Every discipline is a legal Definition 1 schedule, so Theorem 4's safety
// guarantee is untouched; only the decision-round curve moves.
func Example_laggard() {
	const n, t = 24, 3 // t < n/6

	for _, schedName := range []string{"full", "laggard", "seeded"} {
		cfg := asyncagree.Config{
			Algorithm: asyncagree.AlgorithmCore,
			N:         n,
			T:         t,
			Inputs:    asyncagree.SplitInputs(n),
			Seed:      7,
		}
		sys, err := asyncagree.New(cfg)
		if err != nil {
			log.Fatal(err)
		}

		// The adversary contributes no resets here; the scheduler alone
		// decides the delivery discipline. Swap "full" for "storm" to
		// compose a reset storm with laggard delivery.
		adv, err := asyncagree.NewAdversary("full", cfg)
		if err != nil {
			log.Fatal(err)
		}
		sch, err := asyncagree.NewScheduler(schedName, cfg)
		if err != nil {
			log.Fatal(err)
		}

		res, err := sys.RunWindows(asyncagree.Schedule(adv, sch), 200000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s windows=%-4d first-decision=%-4d all-decided=%-5v agreement=%v validity=%v\n",
			schedName, res.Windows, res.FirstDecision, res.AllDecided, res.Agreement, res.Validity)
		if !res.Agreement || !res.Validity {
			log.Fatal("safety violated?! (this is a bug, not a property of the discipline)")
		}
	}
	fmt.Println()
	fmt.Println("Same algorithm, same adversary, three delivery disciplines:")
	fmt.Println("the decision-round curve moves, agreement and validity never do.")

	// Output:
	// full     windows=59   first-decision=58   all-decided=true  agreement=true validity=true
	// laggard  windows=59   first-decision=58   all-decided=true  agreement=true validity=true
	// seeded   windows=205  first-decision=203  all-decided=true  agreement=true validity=true
	//
	// Same algorithm, same adversary, three delivery disciplines:
	// the decision-round curve moves, agreement and validity never do.
}

// The headline capability of the paper's Section 3 algorithm: surviving a
// strongly adaptive adversary that erases the memory of t processors every
// single acceptable window. Ben-Or and Bracha were not designed for this;
// the core algorithm's reset-detection and rejoin machinery is what Theorem
// 4 certifies.
//
// This example counts how many resets each processor absorbs while the
// protocol still reaches a safe unanimous decision.
func Example_resetStorm() {
	const n, t = 30, 4 // t < n/6

	cfg := asyncagree.Config{
		Algorithm: asyncagree.AlgorithmCore,
		N:         n,
		T:         t,
		Inputs:    asyncagree.SplitInputs(n),
		Seed:      2024,
	}
	sys, err := asyncagree.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	resets := 0
	decisions := 0
	sys.OnEvent = func(ev asyncagree.Event) {
		switch ev.Kind {
		case asyncagree.EvReset:
			resets++
		case asyncagree.EvDecide:
			decisions++
			fmt.Printf("window %3d: processor %2d decided %d (after %d total resets so far)\n",
				ev.Window, ev.Proc, ev.Value, resets)
		}
	}

	// The storm: reset a rotating set of t processors at the end of every
	// window, forever. Resolved by name from the scenario registry, which
	// hands back fresh rotation state for this run.
	adv, err := asyncagree.NewAdversary("storm", cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.RunWindows(adv, 200000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("windows:    %d\n", res.Windows)
	fmt.Printf("resets:     %d (every processor hit ~%d times)\n", resets, resets/n)
	fmt.Printf("decisions:  %d/%d, agreement=%v validity=%v\n", decisions, n, res.Agreement, res.Validity)
	if !res.Agreement || !res.Validity || !res.AllDecided {
		log.Fatal("Theorem 4 violated?! (this is a bug, not a property of the algorithm)")
	}
	fmt.Println("Theorem 4 in action: measure-one correctness and termination under adaptive resets.")

	// Output:
	// window 480: processor  0 decided 1 (after 1920 total resets so far)
	// window 480: processor  1 decided 1 (after 1920 total resets so far)
	// window 480: processor  2 decided 1 (after 1920 total resets so far)
	// window 480: processor  3 decided 1 (after 1920 total resets so far)
	// window 480: processor  4 decided 1 (after 1920 total resets so far)
	// window 480: processor  5 decided 1 (after 1920 total resets so far)
	// window 480: processor  6 decided 1 (after 1920 total resets so far)
	// window 480: processor  7 decided 1 (after 1920 total resets so far)
	// window 480: processor  8 decided 1 (after 1920 total resets so far)
	// window 480: processor  9 decided 1 (after 1920 total resets so far)
	// window 480: processor 10 decided 1 (after 1920 total resets so far)
	// window 480: processor 11 decided 1 (after 1920 total resets so far)
	// window 480: processor 12 decided 1 (after 1920 total resets so far)
	// window 480: processor 13 decided 1 (after 1920 total resets so far)
	// window 480: processor 14 decided 1 (after 1920 total resets so far)
	// window 480: processor 15 decided 1 (after 1920 total resets so far)
	// window 480: processor 16 decided 1 (after 1920 total resets so far)
	// window 480: processor 17 decided 1 (after 1920 total resets so far)
	// window 480: processor 18 decided 1 (after 1920 total resets so far)
	// window 480: processor 19 decided 1 (after 1920 total resets so far)
	// window 480: processor 20 decided 1 (after 1920 total resets so far)
	// window 480: processor 21 decided 1 (after 1920 total resets so far)
	// window 480: processor 22 decided 1 (after 1920 total resets so far)
	// window 480: processor 23 decided 1 (after 1920 total resets so far)
	// window 480: processor 24 decided 1 (after 1920 total resets so far)
	// window 480: processor 25 decided 1 (after 1920 total resets so far)
	// window 480: processor 26 decided 1 (after 1920 total resets so far)
	// window 480: processor 27 decided 1 (after 1920 total resets so far)
	// window 480: processor 28 decided 1 (after 1920 total resets so far)
	// window 480: processor 29 decided 1 (after 1920 total resets so far)
	//
	// windows:    481
	// resets:     1924 (every processor hit ~64 times)
	// decisions:  30/30, agreement=true validity=true
	// Theorem 4 in action: measure-one correctness and termination under adaptive resets.
}
