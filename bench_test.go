package asyncagree

// Benchmark harness: one benchmark per experiment in DESIGN.md §5 (the
// paper has no numbered tables/figures; each theorem or in-text claim has an
// experiment ID E1..E16), plus substrate micro-benchmarks. Regenerate the
// EXPERIMENTS.md tables with `go run ./cmd/experiments -scale full`.
//
// Nothing here is a committed number. Timing claims are made by the repo
// benchmark (BENCHMARK.json, benchmark/); the allocation ceilings of these
// cases are pinned by allocs_test.go; what `go test -run '^$' -bench <case>
// -benchmem -count 10 .` prints is exploratory and states its own
// environment (add -cpuprofile / -memprofile to profile a case).

import (
	"strconv"
	"testing"

	"asyncagree/internal/experiments"
	"asyncagree/internal/registry"
	"asyncagree/internal/rng"
	"asyncagree/internal/sim"
	"asyncagree/internal/talagrand"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(experiments.ScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("%s failed the paper claim", id)
		}
	}
}

func BenchmarkE1Feasibility(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2ExponentialTime(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkE3Thresholds(b *testing.B)       { benchExperiment(b, "E3") }
func BenchmarkE4Talagrand(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5Separation(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6Interpolation(b *testing.B)    { benchExperiment(b, "E6") }
func BenchmarkE7StallProbability(b *testing.B) { benchExperiment(b, "E7") }
func BenchmarkE8CrashChains(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9Unanimous(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10Committee(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11Paxos(b *testing.B)           { benchExperiment(b, "E11") }
func BenchmarkE12NoConflict(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13Z1Separation(b *testing.B)    { benchExperiment(b, "E13") }
func BenchmarkE14SchedCurves(b *testing.B)     { benchExperiment(b, "E14") }
func BenchmarkE15ScalingCurves(b *testing.B)   { benchExperiment(b, "E15") }
func BenchmarkE16Search(b *testing.B)          { benchExperiment(b, "E16") }

// --- Substrate micro-benchmarks -----------------------------------------

func sizeLabel(n int) string { return "n=" + strconv.Itoa(n) }

// coreConfig is the substrate cases' system: the core algorithm at size n
// with t = n/8 and split inputs, in the default execution configuration.
func coreConfig(n int) Config {
	return Config{Algorithm: AlgorithmCore, N: n, T: n / 8, Inputs: SplitInputs(n), Seed: 1}
}

// mustNew constructs cfg's system.
func mustNew(tb testing.TB, cfg Config) *System {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// benchWindows times steady-state acceptable windows of s under adv. The
// warm windows run past the one-time scratch growth (buffer arena, free
// lists, order buffers reach their batch capacity in the first windows), so
// the timed region is the steady state sweeps run in.
func benchWindows(b *testing.B, s *System, adv WindowAdversary, warm int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < warm; i++ {
		if err := s.ApplyWindowWith(adv); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ApplyWindowWith(adv); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWindowThroughput is benchWindows under full delivery: the simulator's
// hot loop, on the columnar kernel or, with columnar false, on the message
// path. It fails loudly if the columnar gate does not engage when asked for
// (a silent fall-back to the message path would otherwise show up only as a
// mysterious slowdown). Each window carries n² messages (n broadcasters × n
// receivers); msgs/op keeps O(n²)-inherent growth distinguishable from
// kernel overhead.
func benchWindowThroughput(cfg Config, columnar bool, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		s, adv := mustNew(b, cfg), FullDelivery()
		s.SetColumnar(columnar)
		s.SetShardWorkers(workers)
		if columnar && !s.ColumnarPlanned(adv) {
			b.Fatal("columnar gate did not engage; the case would silently measure the message path")
		}
		benchWindows(b, s, adv, 2)
		b.ReportMetric(float64(cfg.N)*float64(cfg.N), "msgs/op")
	}
}

// BenchmarkWindowThroughput measures acceptable windows per second for the
// core algorithm under full delivery on the default path — the columnar
// vote-tally kernel; it fails if the columnar gate does not engage.
func BenchmarkWindowThroughput(b *testing.B) {
	for _, n := range []int{12, 24, 48, 256, 1024} {
		b.Run(sizeLabel(n), benchWindowThroughput(coreConfig(n), true, 1))
	}
}

// BenchmarkWindowThroughputMessage keeps the message-at-a-time
// representation measured, so per-Deliver dispatch regressions stay visible
// now that the default path is columnar.
func BenchmarkWindowThroughputMessage(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(sizeLabel(n), benchWindowThroughput(coreConfig(n), false, 1))
	}
}

// BenchmarkWindowThroughputSharded measures the same hot loop with pool
// workers walking the window's ranges (worker counts 2 and 4). Output is
// byte-identical to the inline case; only wall-clock differs — on a
// multi-core machine the workers should win decisively at n >= 256.
func BenchmarkWindowThroughputSharded(b *testing.B) {
	for _, n := range []int{256, 1024} {
		for _, w := range []int{2, 4} {
			b.Run(sizeLabel(n)+"/w="+strconv.Itoa(w), benchWindowThroughput(coreConfig(n), true, w))
		}
	}
}

// BenchmarkSplitVoteWindow measures the split-vote adversary's per-window
// planning plus execution cost.
func BenchmarkSplitVoteWindow(b *testing.B) {
	for _, n := range []int{24, 48} {
		b.Run(sizeLabel(n), func(b *testing.B) {
			cfg := coreConfig(n)
			adv, err := SplitVoteAdversary(cfg)
			if err != nil {
				b.Fatal(err)
			}
			benchWindows(b, mustNew(b, cfg), adv, 2)
		})
	}
}

// planSink keeps subsetPlanner's result live.
var planSink sim.Window

// subsetPlanner returns one planning call of the seeded scheduler at size n:
// an independent random (n-t)-subset per receiver, n rng.SubsetBits draws
// into the System's sender rows — the planning kernel of the chaos cells.
// Planning touches nothing else of the System; the sampler's scratch has
// grown on return.
func subsetPlanner(tb testing.TB, n int) func() {
	tb.Helper()
	cfg := coreConfig(n)
	s := mustNew(tb, cfg)
	sch, err := NewScheduler("seeded", cfg)
	if err != nil {
		tb.Fatal(err)
	}
	plan := func() { planSink = sch.PlanSenders(s, nil) }
	plan()
	return plan
}

// BenchmarkSubsetPlanWindow measures the seeded scheduler's per-window
// planning cost: at the chaos grid's n = 128, and at n = 1024, the largest
// prefix the rejection tables cover (subsetPlanner's first call builds the
// table, before the timer starts).
func BenchmarkSubsetPlanWindow(b *testing.B) {
	for _, n := range []int{128, 1024} {
		b.Run(sizeLabel(n), func(b *testing.B) {
			b.ReportAllocs()
			plan := subsetPlanner(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan()
			}
		})
	}
}

// brachaConfig is the Bracha window case: t = (n-1)/3, split inputs.
func brachaConfig(n int) Config {
	return Config{Algorithm: AlgorithmBracha, N: n, T: (n - 1) / 3, Inputs: SplitInputs(n), Seed: 1}
}

// brachaWarmWindows covers several completed protocol rounds: the RBC and
// tally pools reach their high-water mark only after the straggler cycle of
// a few rounds.
const brachaWarmWindows = 200

// BenchmarkBrachaWindow measures windows of the RBC-based protocol (about
// an order of magnitude more traffic per window than core).
func BenchmarkBrachaWindow(b *testing.B) {
	b.Run(sizeLabel(13), func(b *testing.B) {
		benchWindows(b, mustNew(b, brachaConfig(13)), FullDelivery(), brachaWarmWindows)
	})
}

// BenchmarkPaxosDecision measures full solo-proposer Paxos decisions to
// quorum through the pooled trial engine (the steady-state path sweeps run
// Paxos on): each iteration recycles the scenario's engine and runs window
// mode under full delivery to decision.
func BenchmarkPaxosDecision(b *testing.B) {
	const n = 5
	b.Run(sizeLabel(n), func(b *testing.B) {
		b.ReportAllocs()
		inputs := SplitInputs(n)
		run := func(seed uint64) {
			res, err := registry.RunPooledTrial("paxos", "full", "adversary", registry.Params{
				N: n, T: (n - 1) / 2, Inputs: inputs, Seed: seed,
			}, 1000)
			if err != nil {
				b.Fatal(err)
			}
			if !res.AllDecided {
				b.Fatal("no decision")
			}
		}
		run(1) // warm the scenario's engine pool
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(uint64(i + 1))
		}
	})
}

// BenchmarkTalagrandExact measures exact product-measure computation.
func BenchmarkTalagrandExact(b *testing.B) {
	s := talagrand.UniformBits(16)
	set := talagrand.HammingWeightAtMost(6)
	for i := 0; i < b.N; i++ {
		if _, err := s.Measure(set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTalagrandMC measures Monte-Carlo product-measure estimation.
func BenchmarkTalagrandMC(b *testing.B) {
	s := talagrand.UniformBits(64)
	set := talagrand.HammingWeightAtMost(24)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = s.MeasureMC(set, 1000, r)
	}
}

// BenchmarkBufferOps measures raw message buffer Add/Take throughput.
func BenchmarkBufferOps(b *testing.B) {
	b.ReportAllocs()
	buf := sim.NewBuffer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := buf.Add(sim.Message{From: 0, To: 1})
		if _, ok := buf.Take(m.ID); !ok {
			b.Fatal("lost message")
		}
	}
}

// sweepThroughputMatrix is a fixed small grid: core and Ben-Or under the
// benign and split-vote adversaries, four seeds — sixteen trials.
func sweepThroughputMatrix() Matrix {
	return Matrix{
		Algorithms:  []string{"core", "benor"},
		Adversaries: []string{"full", "splitvote"},
		Schedulers:  []string{"adversary"},
		Sizes:       []SweepSize{{N: 12, T: 1}},
		Inputs:      []string{"split"},
		Seeds:       []uint64{1, 2, 3, 4},
		MaxWindows:  2000,
	}
}

// sweepMemoryMatrix is a single cell (core under full delivery, unanimous
// inputs: each trial decides in its first window) over `trials` seeds. With
// results reduced online the allocation footprint of a sweep is the engine
// pool's warm-up and the seed list plus one record's worth per trial;
// O(trials) result buffering shows up directly in allocs/op and B/op (and is
// test-asserted with forced-GC heap sampling in
// registry.TestRunPeakRetainedMemoryIndependentOfTrialCount).
func sweepMemoryMatrix(trials int) Matrix {
	m := Matrix{
		Algorithms:  []string{"core"},
		Adversaries: []string{"full"},
		Schedulers:  []string{"adversary"},
		Sizes:       []SweepSize{{N: 12, T: 1}},
		Inputs:      []string{"ones"},
		MaxWindows:  4,
	}
	for s := uint64(1); s <= uint64(trials); s++ {
		m.Seeds = append(m.Seeds, s)
	}
	return m
}

// runSweep runs m once and checks it is the sweep the case means to measure.
func runSweep(tb testing.TB, m Matrix, cells, trials int) {
	tb.Helper()
	sweep, err := Sweep(m)
	if err != nil {
		tb.Fatal(err)
	}
	if len(sweep.Cells) != cells || sweep.TrialCount != trials || sweep.SafetyViolations() != 0 {
		tb.Fatalf("unexpected sweep shape: %d cells, %d trials, %d safety violations",
			len(sweep.Cells), sweep.TrialCount, sweep.SafetyViolations())
	}
}

// BenchmarkSweepThroughput measures the scenario sweep engine end to end
// (expansion, parallel trial fan-out, aggregation).
func BenchmarkSweepThroughput(b *testing.B) {
	b.ReportAllocs()
	m := sweepThroughputMatrix()
	for i := 0; i < b.N; i++ {
		runSweep(b, m, 4, 16)
	}
}

// BenchmarkSweepMemory tracks the streaming pipeline's bytes-retained
// behavior over a trial-heavy single-cell sweep.
func BenchmarkSweepMemory(b *testing.B) {
	const trials = 4096
	b.Run("trials="+strconv.Itoa(trials), func(b *testing.B) {
		b.ReportAllocs()
		m := sweepMemoryMatrix(trials)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSweep(b, m, 1, trials)
		}
	})
}

// BenchmarkRandomWindows measures the chaos adversary's planning cost.
func BenchmarkRandomWindows(b *testing.B) {
	benchWindows(b, mustNew(b, coreConfig(24)), RandomAdversary(7, 0.5, 3), 0)
}
