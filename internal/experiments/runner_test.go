package experiments

import (
	"errors"
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/core"
	"asyncagree/internal/sim"
	"asyncagree/internal/stats"
	"asyncagree/internal/stream"
)

// trialFn is a representative experiment trial: a full adversarial run of
// the core algorithm whose result depends on every layer of the simulator.
func trialFn(t *testing.T) func(trial int) (sim.RunResult, error) {
	t.Helper()
	const n, tt = 12, 1
	th, err := core.DefaultThresholds(n, tt)
	if err != nil {
		t.Fatal(err)
	}
	return func(trial int) (sim.RunResult, error) {
		seed := uint64(trial + 1)
		s, err := sim.New(sim.Config{
			N: n, T: tt, Seed: seed,
			Inputs:     patternInputs(n, seed),
			NewProcess: core.NewFactory(n, tt, th),
		})
		if err != nil {
			return sim.RunResult{}, err
		}
		return s.RunWindows(adversary.NewRandomWindows(seed, 0.4, tt), 40000)
	}
}

// TestReduceTrialsMatchesSerialAccumulation is the streaming reducer's
// determinism guarantee over a real simulator workload: reducing seeded
// trials into stream accumulators across the worker pool reproduces the
// serial collect-then-summarize loop exactly for every statistic the
// experiment tables render, run after run.
func TestReduceTrialsMatchesSerialAccumulation(t *testing.T) {
	const trials = 24
	fn := trialFn(t)

	var windows []int
	decided := 0
	for i := 0; i < trials; i++ {
		res, err := fn(i)
		if err != nil {
			t.Fatal(err)
		}
		if res.AllDecided {
			decided++
			windows = append(windows, res.Windows)
		}
	}
	want := stats.SummarizeInts(windows)

	type acc struct {
		decided   int
		windows   stream.Summary
		quantiles *stream.Reservoir
	}
	reduce := func() (*acc, error) {
		return ReduceTrials(trials,
			func() *acc { return &acc{quantiles: stream.NewReservoir(0)} },
			func(a *acc, trial int) (*acc, error) {
				res, err := fn(trial)
				if err != nil {
					return a, err
				}
				if res.AllDecided {
					a.decided++
					a.windows.AddInt(res.Windows)
					a.quantiles.AddInt(res.Windows)
				}
				return a, nil
			},
			func(into, from *acc) *acc {
				into.decided += from.decided
				into.windows.Merge(&from.windows)
				into.quantiles.Merge(from.quantiles)
				return into
			})
	}
	got, err := reduce()
	if err != nil {
		t.Fatal(err)
	}
	if got.decided != decided {
		t.Fatalf("decided = %d, want %d", got.decided, decided)
	}
	if sum := stats.FromStream(&got.windows, got.quantiles); sum != want {
		t.Fatalf("streaming summary %+v != serial %+v", sum, want)
	}
	// And the reduction must be replayable.
	again, err := reduce()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FromStream(&again.windows, again.quantiles) != stats.FromStream(&got.windows, got.quantiles) {
		t.Fatal("two reductions with identical seeds diverged")
	}
}

// TestReduceTrialsSurfacesLowestError mirrors serial error semantics: the
// reported failure is the one the serial loop would have hit first.
func TestReduceTrialsSurfacesLowestError(t *testing.T) {
	sentinel := errors.New("trial failed")
	_, err := ReduceTrials(32,
		func() int { return 0 },
		func(a, trial int) (int, error) {
			if trial >= 5 {
				return a, sentinel
			}
			return a + 1, nil
		},
		func(into, from int) int { return into + from })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}
