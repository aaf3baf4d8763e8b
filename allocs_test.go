package asyncagree

import (
	"runtime"
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/registry"
)

// This file holds the allocation ceilings of the substrate benchmarks in
// bench_test.go (with sim.TestBufferAddTakeAllocFree for BufferOps):
// allocation counts are machine-independent, so unlike a timing they can be
// asserted by `go test` on any runner. That a warm pooled trial allocates
// nothing is held for every algorithm by the conformance battery's
// registry.TestWarmTrialAllocFree.

// TestApplyWindowAllocs is the allocation-regression guard for the window
// hot loop: after warmup, one full acceptable window of the core algorithm
// must allocate NOTHING — the vote payload boxes (the last remaining
// per-window source, n boxes per window) are pooled and reclaimed by the
// System at window end. The seed implementation spent ~36n allocations per
// window; PR 1 cut that to ~n; this pins zero — on the columnar vote-tally
// kernel (the default for core; n = 1024 keeps a multi-word sender bitset
// covered), on the legacy message-at-a-time path, on the latter also under
// fixed silence, whose sender list used to be rebuilt per window, and under
// the split-vote adversary's planning. The two uniform planners at n = 1024
// (fixed silence of t senders, and the laggard scheduler over full delivery)
// hold System.UniformWindow's fill of sixteen-word rows to zero as well, and
// the random-subset planners at the chaos grid's n = 128 (the seeded
// scheduler, the subsets adversary) their per-receiver rng.SubsetBits draws
// with the rejection table the warm-up built.
func TestApplyWindowAllocs(t *testing.T) {
	for _, mode := range []struct {
		name    string
		n       int
		message bool
		adv     func(Config) (WindowAdversary, error)
	}{
		{name: "columnar", n: 24},
		{name: "columnar-1024", n: 1024},
		{name: "message", n: 24, message: true},
		{name: "message-silence", n: 24, message: true,
			adv: func(cfg Config) (WindowAdversary, error) { return Silence(cfg, 0, 1, 2) }},
		{name: "splitvote", n: 24, adv: SplitVoteAdversary},
		{name: "silence-1024", n: 1024,
			adv: func(cfg Config) (WindowAdversary, error) {
				silent := make([]ProcID, cfg.T)
				for i := range silent {
					silent[i] = ProcID(i)
				}
				return Silence(cfg, silent...)
			}},
		{name: "laggard-1024", n: 1024,
			adv: func(cfg Config) (WindowAdversary, error) {
				sch, err := NewScheduler("laggard", cfg)
				return Schedule(FullDelivery(), sch), err
			}},
		{name: "seeded-128", n: 128,
			adv: func(cfg Config) (WindowAdversary, error) {
				sch, err := NewScheduler("seeded", cfg)
				return Schedule(FullDelivery(), sch), err
			}},
		{name: "subsets-128", n: 128,
			adv: func(cfg Config) (WindowAdversary, error) { return NewAdversary("subsets", cfg) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := coreConfig(mode.n)
			s := mustNew(t, cfg)
			s.SetColumnar(!mode.message)
			adv := FullDelivery()
			if mode.adv != nil {
				var err error
				if adv, err = mode.adv(cfg); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 32; i++ { // warm up scratch buffers, pools, and arenas
				if err := s.ApplyWindowWith(adv); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := s.ApplyWindowWith(adv); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("ApplyWindow (%s) allocates %.1f per window at n=%d, want 0",
					mode.name, allocs, mode.n)
			}
		})
	}
}

// TestSubsetPlanAllocFree pins the seeded scheduler's planning call — n
// random (n-t)-subsets, the kernel of the chaos cells — at zero allocations
// once its row scratch has grown.
func TestSubsetPlanAllocFree(t *testing.T) {
	const n = 128
	if allocs := testing.AllocsPerRun(100, subsetPlanner(t, n)); allocs > 0 {
		t.Fatalf("seeded PlanSenders allocates %.1f per call at n=%d, want 0", allocs, n)
	}
}

// TestRandomResetPlanAllocFree pins the random adversary's planning call with
// a reset draw every window (reset probability 1) — n per-receiver subsets,
// then the reset subset drawn into its row and read back as a list — at zero
// allocations once its scratch has grown.
func TestRandomResetPlanAllocFree(t *testing.T) {
	const n = 128
	cfg := coreConfig(n)
	s := mustNew(t, cfg)
	adv := adversary.NewRandomWindows(1, 1, cfg.T)
	plan := func() { planSink = adv.PlanDelivery(s, nil) }
	plan()
	if len(planSink.Resets) == 0 {
		t.Fatal("vacuous: the plan drew no resets")
	}
	if allocs := testing.AllocsPerRun(100, plan); allocs > 0 {
		t.Fatalf("random PlanDelivery with resets allocates %.1f per call at n=%d, want 0", allocs, n)
	}
}

// mallocsPerRun is testing.AllocsPerRun at two workers instead of its
// GOMAXPROCS(1): the mean process-wide malloc count of f once warm. A sweep
// fans its trials across GOMAXPROCS workers, and the worker-pool path
// (goroutines, the reorder window, one pooled engine per worker and cell) is
// the one the sweep ceilings must cover; the count grows with the worker
// count (43, 56, 58-64, 62-73 per sixteen-trial sweep at 1, 2, 4, 8), so it
// is pinned to the 2-vCPU reference box's to mean the same on every machine.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for i := 0; i < 8; i++ { // goroutines, the reorder window, the sinks
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// bytesPerRun is mallocsPerRun for bytes, with nothing warmed but the
// process: the mean heap bytes f allocates, GOMAXPROCS pinned as there.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f() // package-level tables, not the trial's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestColdTrialBytes pins what one trial allocates on a pool miss — a fresh
// System, processes and adversary, run to decision — for the two message-
// heavy algorithms at the default sweep's 27:3, split inputs under full
// delivery. That is what a sweep pays for the first trial of each scenario.
// Each send is stored once, in the buffer's ring, a broadcast as one record
// whose copies are made at delivery, RBC instances live in pooled blocks,
// and a committee processor's outbox keeps the array its agreements'
// flushes grew; a per-window copy of the batch, a cell per copy of a
// broadcast, a map per instance, or an outbox regrown every window goes
// through the ceiling. Measured 0.63 MB (Bracha) and 8.58 MB (committee,
// whose group agreements still send a copy per member), against nothing
// for a warm trial of either; 6.95 MB and 8.95 MB
// while a broadcast was stored as n messages, 18.71 MB and 30.71 MB when
// every message was stored three times and instances were mapped by tag,
// 18.13 MB for committee while its outbox was regrown.
func TestColdTrialBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow allocations are not the trial's")
	}
	for _, c := range []struct {
		alg     Algorithm
		ceiling float64 // bytes
	}{
		{AlgorithmBracha, 0.7e6},
		{AlgorithmCommittee, 9.0e6},
	} {
		t.Run(string(c.alg), func(t *testing.T) {
			cfg := Config{Algorithm: c.alg, N: 27, T: 3, Inputs: SplitInputs(27), Seed: 1}
			bytes := bytesPerRun(3, func() {
				res, err := Run(cfg, FullDelivery(), 20000)
				if err != nil || !res.AllDecided {
					t.Fatalf("trial: %+v, %v", res, err)
				}
			})
			t.Logf("%.2f MB per cold trial", bytes/1e6)
			if bytes > c.ceiling {
				t.Fatalf("a cold %s 27:3 trial allocates %.2f MB, ceiling %.2f MB", c.alg, bytes/1e6, c.ceiling/1e6)
			}
		})
	}
}

// TestSweepAllocCeilings pins what a whole sweep allocates — expansion,
// trial fan-out across the worker pool, the record pipeline, aggregation —
// with warm engine pools: a fixed few dozen for the sixteen-trial grid (55
// measured), and about one per trial (the record's way through the pipeline)
// for the 4096-trial cell (4133 measured). Buffering every TrialRecord, or
// losing engine recycling, goes through either ceiling at once. Warm means
// an engine per worker for every cell, each grown by every trial of it: two
// workers' trials of one cell overlap only now and then, and the first
// overlap, or an engine's first long trial, inside the measured runs would
// charge them an engine build (about 115 allocations) or a ledger's growth.
func TestSweepAllocCeilings(t *testing.T) {
	for _, c := range []struct {
		name          string
		m             Matrix
		cells, trials int
		runs          int
		ceiling       float64
	}{
		{"grid-16-trials", sweepThroughputMatrix(), 4, 16, 50, 58},
		{"cell-4096-trials", sweepMemoryMatrix(4096), 1, 4096, 5, 5156},
	} {
		t.Run(c.name, func(t *testing.T) {
			warmEngines(t, c.m, 2) // mallocsPerRun's workers
			allocs := mallocsPerRun(c.runs, func() { runSweep(t, c.m, c.cells, c.trials) })
			t.Logf("%.1f allocs per sweep", allocs)
			if allocs > c.ceiling {
				t.Fatalf("a %d-trial sweep allocates %.1f, ceiling %.0f", c.trials, allocs, c.ceiling)
			}
		})
	}
}

// warmEngines leaves k idle engines for every cell of m, the most its trials
// can hold at once on k workers, each of which has run every trial of its
// cell: an engine's processes keep what their longest trial grew, and a
// sweep hands a cell's trials to its engines in no fixed order.
func warmEngines(t *testing.T, m Matrix, k int) {
	t.Helper()
	sweep, err := m.RunWith(registry.RunOptions{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	held := make([]*registry.TrialEngine, k)
	for _, c := range sweep.Cells {
		for _, seed := range m.Seeds {
			inputs, err := registry.Inputs(c.Input, c.Size.N, seed)
			if err != nil {
				t.Fatal(err)
			}
			p := registry.Params{N: c.Size.N, T: c.Size.T, Inputs: inputs, Seed: seed}
			for i := range held {
				if held[i], err = registry.AcquireTrial(c.Algorithm, c.Adversary, c.Scheduler, p); err != nil {
					t.Fatal(err)
				}
				if _, err := held[i].Run(m.MaxWindows); err != nil {
					t.Fatal(err)
				}
			}
			for i := k - 1; i >= 0; i-- { // the same k come back first
				held[i].Release()
			}
		}
	}
}

// TestBrachaWindowAllocs pins the Bracha window loop's allocation tail at
// zero: the residue the benchmark used to report (25 allocs / 2.6 KB per
// window) came from straggler accepts recreating released accumulator maps,
// map-based RBC sender sets growing from empty on pool misses, and a fresh
// label string minted per round. Stale-round accepts are now dropped, sender
// sets are pooled fixed-size bitsets, and tags carry (round, step) as
// structured integers, so the steady-state window allocates nothing.
func TestBrachaWindowAllocs(t *testing.T) {
	const n = 13
	s := mustNew(t, brachaConfig(n))
	adv := FullDelivery()
	for i := 0; i < brachaWarmWindows; i++ {
		if err := s.ApplyWindowWith(adv); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		if err := s.ApplyWindowWith(adv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Bracha window allocates %.1f per window at n=%d, want 0", allocs, n)
	}
}

// TestShardedApplyWindowAllocFree pins the zero-steady-state-allocation
// property of the window core under pool workers: once the pool, per-shard
// scratch, and order buffers are warm, a window allocates nothing —
// phases are dispatched through a reused enum/channel protocol, never
// closures.
func TestShardedApplyWindowAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments channel wakes with allocating shadow state")
	}
	const n = 48
	cfg := Config{Algorithm: AlgorithmCore, N: n, T: n / 8,
		Inputs: SplitInputs(n), Seed: 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetShardWorkers(4)
	adv := FullDelivery()
	for i := 0; i < 32; i++ { // warm up pool, shard scratch, and order buffers
		if err := s.ApplyWindowWith(adv); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.ApplyWindowWith(adv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("sharded ApplyWindow allocates %.1f per window at n=%d, want 0", allocs, n)
	}
}

// TestWindowResetsAllocFree guards the reset path of the window pipeline
// (duplicate detection used to build a map per window).
func TestWindowResetsAllocFree(t *testing.T) {
	const n = 16
	cfg := Config{Algorithm: AlgorithmCore, N: n, T: 2, Inputs: SplitInputs(n), Seed: 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resets := []ProcID{3, 11}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.WindowResets(resets); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("WindowResets allocates %.1f per call, want 0", allocs)
	}
}
