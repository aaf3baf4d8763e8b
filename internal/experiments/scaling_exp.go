package experiments

import (
	"fmt"

	"asyncagree/internal/parallel"
	"asyncagree/internal/registry"
	"asyncagree/internal/sim"
	"asyncagree/internal/stats"
)

// e15ShardWorkers is the worker count the sharded leg of every E15 trial
// runs at. It is a constant, not runtime.GOMAXPROCS, so the experiment
// exercises the window core's worker pool on every machine (including single-CPU
// CI) and its table is machine-independent; output is byte-identical at
// every worker count, so records cannot move with it either way.
const e15ShardWorkers = 4

// runE15 traces the simulator's scaling curves as n grows into the
// thousands — the regime the sharded window core exists for. Two axes:
//
//   - Decision latency: under benign full delivery, the two protocols whose
//     windows-to-decision curve is flat in n. The core algorithm on
//     unanimous inputs decides in the first window at every size (the E9
//     fast path: thresholds are fractions of n, one unanimous wave crosses
//     them). Solo-proposer Paxos on split inputs decides in a fixed number
//     of message rounds independent of n (the E11 benign-scheduling claim).
//     Per-window work grows as n^2; the number of windows must not.
//   - Stall behavior: the Section 3 split-vote adversary against the core
//     algorithm. Its survival probability improves with n (E2/E7), so a
//     window budget it survives at n=48 it must also survive at every
//     larger size: zero decisions within budget, safety intact. (Below
//     n~32 the budget is not survivable — E2's curve is the reason — so
//     the stall axis starts where the exponential has taken over.)
//
// Every trial runs three times through the pooled engine, at three settings
// of the one window core — messages walked inline (the reference), columns
// walked inline, and columns walked by ShardWorkers=4 — and all three
// RunResults must be identical: the inline==pooled and message==columnar
// determinism contracts, checked end to end at sizes the property tests
// cannot afford.
func runE15(scale Scale) (Result, error) {
	type sizeCfg struct {
		n, trials int
	}
	latSizes := []sizeCfg{{16, 4}, {48, 4}, {96, 3}}
	stallSizes := []sizeCfg{{48, 3}}
	stallBudget := 200
	if scale == ScaleFull {
		latSizes = []sizeCfg{{64, 12}, {256, 6}, {1024, 3}, {4096, 2}}
		stallSizes = []sizeCfg{{64, 6}, {256, 3}}
		stallBudget = 400
	}
	// A flat latency curve means: within this fixed budget at EVERY size.
	const latBudget = 16

	// leg is one seeded trial: the reference result and whether either
	// other execution path diverged from it.
	type leg struct {
		res      sim.RunResult
		mismatch bool
	}
	// runLegs executes one seeded trial on all three execution paths —
	// serial message-at-a-time (the reference), serial columnar, and
	// sharded columnar.
	runLegs := func(alg, adv, pattern string, n, t, maxW int, seed uint64) (leg, error) {
		inputs, err := registry.Inputs(pattern, n, seed)
		if err != nil {
			return leg{}, err
		}
		p := registry.Params{N: n, T: t, Seed: seed, Inputs: inputs, ShardWorkers: 1}
		// run is registry.RunPooledTrial with the engine switched to the
		// message path for the reference leg; the next acquisition of the
		// engine switches it back.
		run := func(messages bool) (sim.RunResult, error) {
			e, err := registry.AcquireTrial(alg, adv, "adversary", p)
			if err != nil {
				return sim.RunResult{}, err
			}
			e.System().SetColumnar(!messages)
			res, err := e.Run(maxW)
			e.Release()
			return res, err
		}
		serial, err := run(true)
		if err != nil {
			return leg{}, err
		}
		columnar, err := run(false)
		if err != nil {
			return leg{}, err
		}
		p.ShardWorkers = e15ShardWorkers
		sharded, err := run(false)
		if err != nil {
			return leg{}, err
		}
		return leg{res: serial, mismatch: serial != columnar || serial != sharded}, nil
	}
	// battery fans one row's trials across the pool and tallies the
	// reference results in trial order.
	battery := func(trials int, run func(seed uint64) (leg, error)) (all tally, mismatch bool, err error) {
		err = parallel.Stream(trials,
			func(trial int) (leg, error) { return run(uint64(trial + 1)) },
			func(_ int, l leg) error {
				all.add(l.res)
				mismatch = mismatch || l.mismatch
				return nil
			})
		return all, mismatch, err
	}
	eq := func(mismatch bool) string {
		if mismatch {
			return "MISMATCH"
		}
		return "yes"
	}

	table := stats.NewTable("axis", "algorithm", "n", "t", "adversary", "inputs",
		"trials", "decided", "mean-windows", "max-first-decision", "legs-identical")
	pass := true

	type latCfg struct {
		alg, pattern string
		t            func(n int) int
	}
	latCfgs := []latCfg{
		{alg: "core", pattern: "ones", t: func(n int) int { return n / 8 }},
		{alg: "paxos", pattern: "split", t: func(n int) int { return (n - 1) / 2 }},
	}
	for _, sc := range latSizes {
		for _, lc := range latCfgs {
			sc, lc := sc, lc
			t := lc.t(sc.n)
			acc, mismatch, err := battery(sc.trials, func(seed uint64) (leg, error) {
				return runLegs(lc.alg, "full", lc.pattern, sc.n, t, latBudget, seed)
			})
			if err != nil {
				return Result{}, err
			}
			if mismatch || acc.unsafe > 0 || acc.decided != sc.trials {
				pass = false
			}
			// The unanimous fast path must stay a first-window decision at
			// every size: thresholds scale with n, the wave does not.
			if lc.alg == "core" && acc.maxFirst > 0 {
				pass = false
			}
			table.AddRow("latency", lc.alg, sc.n, t, "full", lc.pattern, sc.trials,
				fmt.Sprintf("%d/%d", acc.decided, sc.trials),
				acc.windows.Mean(), acc.maxFirst, eq(mismatch))
		}
	}

	for _, sc := range stallSizes {
		sc := sc
		acc, mismatch, err := battery(sc.trials, func(seed uint64) (leg, error) {
			return runLegs("core", "splitvote", "split", sc.n, sc.n/8, stallBudget, seed)
		})
		if err != nil {
			return Result{}, err
		}
		if mismatch || acc.unsafe > 0 || acc.decided != 0 {
			pass = false
		}
		table.AddRow("stall", "core", sc.n, sc.n/8, "splitvote", "split", sc.trials,
			fmt.Sprintf("%d/%d", acc.decided, sc.trials),
			acc.windows.Mean(), acc.maxFirst, eq(mismatch))
	}

	notes := []string{
		fmt.Sprintf("every trial ran at three settings of the one window core — messages walked inline, columns walked inline, and columns walked by %d pool workers — with RunResults compared per seed", e15ShardWorkers),
		fmt.Sprintf("latency axis window budget: %d; stall axis window budget: %d acceptable windows", latBudget, stallBudget),
		verdict(pass,
			"windows-to-decision stays flat as n grows (core decides in the first window on unanimous inputs, Paxos within a fixed round budget), the split-vote adversary still stalls within budget at every size, and the columnar and sharded execution paths reproduce the serial message-at-a-time results exactly"),
	}
	return Result{
		ID:    "E15",
		Title: "Scaling curves: decision latency and stall behavior vs n under the sharded window core",
		Table: table,
		Notes: notes,
		Pass:  pass,
	}, nil
}
