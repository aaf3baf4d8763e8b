package asyncagree

import (
	"testing"

	"asyncagree/internal/registry"
)

// TestApplyWindowAllocs is the allocation-regression guard for the window
// hot loop: after warmup, one full acceptable window of the core algorithm
// under full delivery must allocate NOTHING — the vote payload boxes (the
// last remaining per-window source, n boxes per window) are now pooled and
// reclaimed by the System at window end. The seed implementation spent
// ~36n allocations per window; PR 1 cut that to ~n; this pins zero — on
// both the columnar vote-tally kernel (the default for core) and the legacy
// message-at-a-time path, and on the latter also under fixed silence, whose
// plan (one shared sender list, one row slice) used to be rebuilt per window.
func TestApplyWindowAllocs(t *testing.T) {
	for _, mode := range []struct {
		name     string
		columnar bool
		silence  bool
	}{{"columnar", true, false}, {"message", false, false}, {"message-silence", false, true}} {
		t.Run(mode.name, func(t *testing.T) {
			const n = 24
			cfg := Config{Algorithm: AlgorithmCore, N: n, T: n / 8,
				Inputs: SplitInputs(n), Seed: 1, DisableColumnar: !mode.columnar}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			adv := FullDelivery()
			if mode.silence {
				if adv, err = Silence(cfg, 0, 1, 2); err != nil {
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
					mode.name, allocs, n)
			}
		})
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
	cfg := Config{Algorithm: AlgorithmBracha, N: n, T: (n - 1) / 3,
		Inputs: SplitInputs(n), Seed: 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adv := FullDelivery()
	// The warm-up must cover several protocol rounds: pools reach their
	// high-water mark only after the straggler-recreation cycle of a few
	// completed rounds.
	for i := 0; i < 200; i++ {
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

// TestRecycledTrialAllocFree is the allocation-regression guard for the
// pooled trial engine: once the scenario pool is warm, a complete recycled
// trial — acquire, System.Recycle, full windows-to-decision run, release —
// of the core algorithm under full delivery must allocate NOTHING. This
// pins the tentpole property that steady-state sweep execution reuses the
// system, processes, payload boxes, and adversary state wholesale.
func TestRecycledTrialAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds randomize sync.Pool retention; the scenario pool cannot stay warm")
	}
	p := registry.Params{N: 12, T: 1, Inputs: SplitInputs(12), Seed: 7}
	run := func() {
		res, err := registry.RunPooledTrial("core", "full", "adversary", p, 500)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided {
			t.Fatal("trial did not decide")
		}
	}
	for i := 0; i < 16; i++ { // warm the scenario pool, payload boxes, arenas
		run()
	}
	allocs := testing.AllocsPerRun(200, run)
	if allocs > 0 {
		t.Fatalf("recycled core+full trial allocates %.1f per trial, want 0", allocs)
	}
}

// TestRecycledSplitVoteTrialAllocs pins the recycled steady state of the
// sweep engine's heaviest standard cell, Ben-Or under the split-vote
// stalling adversary: pooled tallies, payload boxes, and the adversary's
// planning scratch hold per-trial allocations to (near) zero.
func TestRecycledSplitVoteTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds randomize sync.Pool retention; the scenario pool cannot stay warm")
	}
	p := registry.Params{N: 12, T: 1, Inputs: SplitInputs(12), Seed: 5}
	run := func() {
		res, err := registry.RunPooledTrial("benor", "splitvote", "adversary", p, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided {
			t.Fatal("trial did not decide")
		}
	}
	for i := 0; i < 16; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(100, run)
	if allocs > 2 { // slack for amortized map growth in round bookkeeping
		t.Fatalf("recycled benor+splitvote trial allocates %.1f per trial, budget 2", allocs)
	}
}

// TestRecycledPaxosTrialAllocFree pins Paxos — the last algorithm moved onto
// the pooled path — at zero steady-state allocations per recycled trial:
// payload boxes cycle through the per-processor free lists (reclaimed at
// window end, with final-window outbox residue swept back on Recycle), and
// the quorum maps clear in place. The pre-pool implementation spent 92
// allocations / 7.6 KB per decision.
func TestRecycledPaxosTrialAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds randomize sync.Pool retention; the scenario pool cannot stay warm")
	}
	p := registry.Params{N: 5, T: 2, Inputs: SplitInputs(5), Seed: 7}
	run := func() {
		res, err := registry.RunPooledTrial("paxos", "full", "adversary", p, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided {
			t.Fatal("trial did not decide")
		}
	}
	for i := 0; i < 16; i++ { // warm the scenario pool, box pools, arenas
		run()
	}
	allocs := testing.AllocsPerRun(200, run)
	if allocs > 0 {
		t.Fatalf("recycled paxos+full trial allocates %.1f per trial, want 0", allocs)
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
		Inputs: SplitInputs(n), Seed: 1, ShardWorkers: 4}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
