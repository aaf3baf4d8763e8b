package asyncagree

// Benchmark harness: one benchmark per experiment in DESIGN.md §5 (the
// paper has no numbered tables/figures; each theorem or in-text claim has an
// experiment ID E1..E15), plus substrate micro-benchmarks. Regenerate the
// EXPERIMENTS.md tables with `go run ./cmd/experiments -scale full`.

import (
	"strconv"
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/benchcases"
	"asyncagree/internal/experiments"
	"asyncagree/internal/rng"
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

// --- Substrate micro-benchmarks -----------------------------------------

// BenchmarkWindowThroughput measures acceptable windows per second for the
// core algorithm under full delivery (the simulator's hot loop). The body is
// shared with cmd/bench via internal/benchcases so BENCH_baseline.json and
// this benchmark cannot drift apart.
func BenchmarkWindowThroughput(b *testing.B) {
	for _, n := range []int{12, 24, 48, 256, 1024} {
		b.Run(benchcases.SizeLabel(n), benchcases.WindowThroughput(n))
	}
}

// BenchmarkWindowThroughputMessage keeps the legacy message-at-a-time path
// measured for comparison (BenchmarkWindowThroughput is the columnar kernel,
// and fails if the columnar gate does not engage). The body is shared with
// cmd/bench.
func BenchmarkWindowThroughputMessage(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(benchcases.SizeLabel(n), benchcases.WindowThroughputMessage(n))
	}
}

// BenchmarkWindowThroughputSharded measures the same hot loop with pool
// workers walking the window's ranges (worker counts 2 and 4). Output is
// byte-identical to the inline case; only wall-clock differs — on a
// multi-core machine the workers should win decisively at n >= 256.
func BenchmarkWindowThroughputSharded(b *testing.B) {
	for _, n := range []int{256, 1024} {
		for _, w := range []int{2, 4} {
			b.Run(benchcases.SizeLabel(n)+"/w="+strconv.Itoa(w),
				benchcases.WindowThroughputSharded(n, w))
		}
	}
}

// BenchmarkSplitVoteWindow measures the adversary's per-window planning
// cost.
func BenchmarkSplitVoteWindow(b *testing.B) {
	for _, n := range []int{24, 48} {
		b.Run(benchcases.SizeLabel(n), benchcases.SplitVoteWindow(n))
	}
}

// BenchmarkSubsetPlanWindow measures the seeded scheduler's per-window
// planning cost (n random (n-t)-subsets).
func BenchmarkSubsetPlanWindow(b *testing.B) {
	b.Run(benchcases.SizeLabel(128), benchcases.SubsetPlanWindow(128))
}

// BenchmarkBrachaWindow measures windows of the RBC-based protocol (about
// an order of magnitude more traffic per window than core). The body is
// shared with cmd/bench via internal/benchcases, so the case is tracked in
// BENCH_baseline.json too.
func BenchmarkBrachaWindow(b *testing.B) {
	b.Run(benchcases.SizeLabel(13), benchcases.BrachaWindow(13))
}

// BenchmarkPaxosDecision measures full solo-proposer Paxos decisions. The
// body is shared with cmd/bench via internal/benchcases.
func BenchmarkPaxosDecision(b *testing.B) {
	b.Run(benchcases.SizeLabel(5), benchcases.PaxosDecision(5))
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

// BenchmarkBufferOps measures raw message buffer throughput.
func BenchmarkBufferOps(b *testing.B) {
	benchcases.BufferOps()(b)
}

// BenchmarkSweepThroughput measures the scenario sweep engine end to end
// (expansion, parallel trial fan-out, aggregation). The body is shared with
// cmd/bench via internal/benchcases.
func BenchmarkSweepThroughput(b *testing.B) {
	benchcases.SweepThroughput()(b)
}

// BenchmarkSweepMemory tracks the streaming pipeline's bytes-retained
// behavior over a trial-heavy single-cell sweep. The body is shared with
// cmd/bench via internal/benchcases.
func BenchmarkSweepMemory(b *testing.B) {
	b.Run("trials=4096", benchcases.SweepMemory(4096))
}

// BenchmarkRandomWindows measures the chaos adversary's planning cost.
func BenchmarkRandomWindows(b *testing.B) {
	cfg := Config{Algorithm: AlgorithmCore, N: 24, T: 3, Inputs: SplitInputs(24), Seed: 1}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	adv := adversary.NewRandomWindows(7, 0.5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ApplyWindowWith(adv); err != nil {
			b.Fatal(err)
		}
	}
}
