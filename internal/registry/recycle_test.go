package registry

import (
	"reflect"
	"testing"

	"asyncagree/internal/sim"
)

// allSpecs materializes every trial spec in expansion order — the streaming
// pipeline derives them one at a time with specAt; equivalence tests iterate
// the list directly.
func (m Matrix) allSpecs() ([]trialSpec, error) {
	cells, resolved, _, err := m.expand()
	if err != nil {
		return nil, err
	}
	specs := make([]trialSpec, 0, len(cells)*len(resolved.Seeds))
	for i := 0; i < len(cells)*len(resolved.Seeds); i++ {
		specs = append(specs, resolved.specAt(cells, i))
	}
	return specs, nil
}

// runTrialFresh is the pre-pool path — build a fresh system and fresh
// adversary + scheduler state from the seed — the reference implementation
// the pooled engine is equivalence-tested against.
func runTrialFresh(ts trialSpec) (sim.RunResult, error) {
	inputs, err := Inputs(ts.Input, ts.Size.N, ts.seed)
	if err != nil {
		return sim.RunResult{}, err
	}
	p := Params{N: ts.Size.N, T: ts.Size.T, Inputs: inputs, Seed: ts.seed,
		ShardWorkers: ts.shardWorkers, DisableColumnar: ts.disableColumnar}
	sys, err := NewSystem(ts.Algorithm, p)
	if err != nil {
		return sim.RunResult{}, err
	}
	adv, err := NewScheduledAdversary(ts.Adversary, ts.Scheduler, ts.Algorithm, p)
	if err != nil {
		return sim.RunResult{}, err
	}
	return sys.RunWindows(adv, ts.maxWindows)
}

// TestPooledSweepMatchesFreshSweep asserts the sweep-level contract: the
// pooled parallel engine (Run) and the pooled serial loop (RunSerial)
// aggregate to identical output, and every record they emit equals the
// construct-per-trial reference execution of the same trial.
func TestPooledSweepMatchesFreshSweep(t *testing.T) {
	m := Matrix{
		Algorithms:  []string{"core", "benor"},
		Adversaries: []string{"full", "splitvote", "storm"},
		Sizes:       []Size{{N: 12, T: 1}},
		Inputs:      []string{"split", "ones"},
		Seeds:       []uint64{1, 2, 3},
		MaxWindows:  2000,
	}
	sink := &memorySink{}
	pooled, err := m.RunWith(RunOptions{Sinks: []ResultSink{sink}})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := m.RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled, serial) {
		t.Fatalf("pooled parallel and pooled serial sweeps diverged:\n%+v\n%+v", pooled, serial)
	}
	specs, err := m.allSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.records) != len(specs) {
		t.Fatalf("sweep emitted %d records for %d trials", len(sink.records), len(specs))
	}
	for i, ts := range specs {
		res, err := runTrialFresh(ts)
		if err != nil {
			t.Fatalf("fresh trial %d (%s): %v", i, ts.key(), err)
		}
		if want := newTrialRecord(i, ts, res); sink.records[i] != want {
			t.Fatalf("pooled and fresh trial %d diverged:\npooled %+v\nfresh  %+v", i, sink.records[i], want)
		}
	}
}

// TestRecycledEngineReuse sanity-checks the pool plumbing: releasing an
// engine and re-acquiring the same scenario returns the same instance,
// while a different scenario gets its own.
func TestRecycledEngineReuse(t *testing.T) {
	p := Params{N: 12, T: 1, Inputs: SplitInputs(12), Seed: 1}
	e1, err := AcquireTrial("core", "full", "adversary", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Run(50); err != nil {
		t.Fatal(err)
	}
	e1.Release()
	e2, err := AcquireTrial("core", "full", "adversary", p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Release()
	if e1 != e2 {
		t.Skip("pool did not hand back the released engine (GC cleared it); nothing to assert")
	}
	other, err := AcquireTrial("benor", "full", "adversary", Params{N: 12, T: 1, Inputs: SplitInputs(12), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Release()
	if other == e2 {
		t.Fatal("distinct scenarios shared one pooled engine")
	}
}
