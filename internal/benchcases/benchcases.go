// Package benchcases defines the substrate micro-benchmark bodies shared by
// the root bench_test.go and cmd/bench, so the committed BENCH_baseline.json
// and the CI benchmark smoke measure exactly the same code and cannot drift
// apart.
package benchcases

import (
	"strconv"
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/lowerbound"
	"asyncagree/internal/registry"
	"asyncagree/internal/sched"
	"asyncagree/internal/sim"
)

// SizeLabel renders the "n=<n>" sub-benchmark label. It is the one shared
// helper for sizing benchmark names, used by both the root bench_test.go
// and cmd/bench so recorded baseline entries and `go test -bench` output
// name identical cases.
func SizeLabel(n int) string { return "n=" + strconv.Itoa(n) }

// WindowThroughput measures acceptable windows per second for the core
// algorithm under full delivery (the simulator's hot loop) at size n with
// t = n/8 and split inputs, in the default execution configuration — which,
// since core opts into the columnar vote-tally kernel, is the columnar
// path; the shared body fails loudly if the columnar gate does not engage (a
// silent fall-back to the message-at-a-time path would otherwise show up only
// as a mysterious slowdown). Each window carries n² messages (n broadcasters
// × n receivers); the bodies report msgs/op so cmd/bench can derive
// ns/message and keep O(n²)-inherent growth distinguishable from kernel
// overhead.
func WindowThroughput(n int) func(b *testing.B) {
	return windowThroughput(n, 1, true)
}

// WindowThroughputSharded is WindowThroughput with the window's ranges
// walked by the given number of pool workers. Execution output is
// byte-identical to the inline case (property-tested in registry); only
// wall-clock differs.
func WindowThroughputSharded(n, workers int) func(b *testing.B) {
	return windowThroughput(n, workers, true)
}

// WindowThroughputMessage is the message-at-a-time representation, kept
// measured so per-Deliver dispatch regressions stay visible now that the
// default path is columnar.
func WindowThroughputMessage(n int) func(b *testing.B) {
	return windowThroughput(n, 1, false)
}

func windowThroughput(n, workers int, columnar bool) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		s, _, err := lowerbound.NewCoreSystem(n, n/8, 1)
		if err != nil {
			b.Fatal(err)
		}
		s.SetShardWorkers(workers)
		s.SetParallelSend(workers > 1)
		s.SetColumnar(columnar)
		adv := adversary.FullDelivery{}
		if columnar && !s.ColumnarPlanned(adv) {
			b.Fatal("columnar gate did not engage; the case would silently measure the message path")
		}
		// Warm up past the one-time scratch growth (buffer arena, free list,
		// order buffers reach steady-state batch capacity during the first
		// windows), so the timed region measures the steady state the sweep
		// engine actually runs in rather than amortized warm-up bytes.
		for i := 0; i < 2; i++ {
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
		b.ReportMetric(float64(n)*float64(n), "msgs/op")
	}
}

// SplitVoteWindow measures the split-vote adversary's per-window planning
// plus execution cost at size n with t = n/8.
func SplitVoteWindow(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		s, th, err := lowerbound.NewCoreSystem(n, n/8, 1)
		if err != nil {
			b.Fatal(err)
		}
		adv := lowerbound.NewSplitVote(th)
		for i := 0; i < 2; i++ { // steady-state scratch (see windowThroughput)
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
}

// planSink keeps SubsetPlanWindow's result live.
var planSink [][]sim.ProcID

// SubsetPlanWindow measures one planning call of the seeded scheduler at size
// n with t = n/8: an independent random (n-t)-subset per receiver, n
// rng.SubsetInto draws — the planning kernel of the chaos cells, next to
// SplitVoteWindow's. Planning never touches the System beyond its shape.
func SubsetPlanWindow(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		s, _, err := lowerbound.NewCoreSystem(n, n/8, 1)
		if err != nil {
			b.Fatal(err)
		}
		sch := sched.NewSeededRandom(1)
		planSink = sch.PlanSenders(s, nil) // grow the row scratch once
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			planSink = sch.PlanSenders(s, nil)
		}
	}
}

// SweepThroughput measures the scenario sweep engine end to end: a fixed
// small matrix (core + Ben-Or under the benign and split-vote adversaries,
// four seeds) expanded, fanned across the worker pool, and aggregated per
// iteration.
func SweepThroughput() func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		m := registry.Matrix{
			Algorithms:  []string{"core", "benor"},
			Adversaries: []string{"full", "splitvote"},
			Schedulers:  []string{"adversary"}, // keep comparable to the pre-scheduler baseline
			Sizes:       []registry.Size{{N: 12, T: 1}},
			Inputs:      []string{"split"},
			Seeds:       []uint64{1, 2, 3, 4},
			MaxWindows:  2000,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep, err := m.Run()
			if err != nil {
				b.Fatal(err)
			}
			if len(sweep.Cells) != 4 || sweep.SafetyViolations() != 0 {
				b.Fatalf("unexpected sweep shape: %+v", sweep.Cells)
			}
		}
	}
}

// BrachaWindow measures acceptable windows of the RBC-based Bracha protocol
// at size n with t = (n-1)/3 and split inputs — about an order of magnitude
// more traffic per window than the core algorithm, the heaviest per-window
// protocol in the inventory.
func BrachaWindow(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		t := (n - 1) / 3
		s, err := registry.NewSystem("bracha", registry.Params{
			N: n, T: t, Inputs: registry.SplitInputs(n), Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		adv := adversary.FullDelivery{}
		// Steady state needs several completed protocol rounds: the RBC and
		// tally pools reach their high-water mark only after the straggler
		// cycle of a few rounds (TestBrachaWindowAllocs warms up the same
		// way and pins the steady state at 0 allocs).
		for i := 0; i < 200; i++ {
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
}

// PaxosDecision measures full solo-proposer Paxos decisions to quorum at
// size n with t = (n-1)/2, through the pooled trial engine (the steady-state
// path sweeps run Paxos on): each iteration recycles the scenario's engine
// and runs window mode under the benign full-delivery adversary to decision.
func PaxosDecision(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		t := (n - 1) / 2
		inputs := registry.SplitInputs(n)
		run := func(seed uint64) {
			res, err := registry.RunPooledTrial("paxos", "full", "adversary", registry.Params{
				N: n, T: t, Inputs: inputs, Seed: seed,
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
	}
}

// SweepMemory measures the streaming result pipeline's bytes-retained
// behavior: a single cell (core under full delivery, unanimous inputs —
// each trial decides in its first window) swept across `seeds` seeds per
// iteration. With results reduced online the per-op allocation footprint is
// dominated by the fixed engine-pool warm-up and the seed list, independent
// of the trial count; reintroducing O(trials) result buffering shows up
// directly in this case's allocs/op and B/op trajectory (and is
// test-asserted with forced-GC heap sampling in
// registry.TestRunPeakRetainedMemoryIndependentOfTrialCount).
func SweepMemory(seeds int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		m := registry.Matrix{
			Algorithms:  []string{"core"},
			Adversaries: []string{"full"},
			Schedulers:  []string{"adversary"},
			Sizes:       []registry.Size{{N: 12, T: 1}},
			Inputs:      []string{"ones"},
			MaxWindows:  4,
		}
		for s := uint64(1); s <= uint64(seeds); s++ {
			m.Seeds = append(m.Seeds, s)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep, err := m.Run()
			if err != nil {
				b.Fatal(err)
			}
			if sweep.TrialCount != seeds || len(sweep.Cells) != 1 {
				b.Fatalf("unexpected sweep shape: %d trials, %d cells",
					sweep.TrialCount, len(sweep.Cells))
			}
		}
	}
}

// BufferOps measures raw message buffer Add/Take throughput.
func BufferOps() func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		buf := sim.NewBufferFor(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := buf.Add(sim.Message{From: 0, To: 1})
			if _, ok := buf.Take(m.ID); !ok {
				b.Fatal("lost message")
			}
		}
	}
}
