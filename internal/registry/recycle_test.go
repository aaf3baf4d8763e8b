package registry

import (
	"fmt"
	"reflect"
	"testing"

	"asyncagree/internal/sim"
)

// traceRun executes one window-mode run recording every trace event as a
// canonical string, and returns the events, the summary, and the final
// configuration snapshot.
func traceRun(sys *sim.System, plan sim.WindowAdversary, maxWindows int) ([]string, sim.RunResult, []string, error) {
	var events []string
	sys.OnEvent = func(ev sim.Event) {
		events = append(events, fmt.Sprintf("%d w%d p%d %d>%d#%d %v v%d",
			ev.Kind, ev.Window, ev.Proc, ev.Msg.From, ev.Msg.To, ev.Msg.ID, ev.Msg.Payload, ev.Value))
	}
	res, err := sys.RunWindows(plan, maxWindows)
	sys.OnEvent = nil
	return events, res, sys.ConfigurationSnapshot(), err
}

// TestRecycledTrialMatchesFresh is the Recycle-correctness property test:
// for every compatible algorithm × adversary × scheduler triple at the
// smoke-grid shapes, running a trial on a recycled engine (constructed,
// dirtied by a full warm-up trial on a different seed and input pattern,
// then rewound) is byte-identical — every trace event, the run summary, and
// the final per-processor state — to running it on freshly constructed
// state.
func TestRecycledTrialMatchesFresh(t *testing.T) {
	// Every triple runs at 12:1 except the committee algorithm, whose
	// validation requires n >= 27 with the default parameterization; its
	// triples are covered at 27:3 (kept to the one algorithm so the -race
	// run stays affordable).
	small := Matrix{
		Sizes:      []Size{{N: 12, T: 1}},
		Inputs:     []string{"split"},
		Seeds:      []uint64{3},
		MaxWindows: 400,
	}
	trials, err := small.allSpecs()
	if err != nil {
		t.Fatal(err)
	}
	committee := Matrix{
		Algorithms: []string{"committee"},
		Sizes:      []Size{{N: 27, T: 3}},
		Inputs:     []string{"split"},
		Seeds:      []uint64{3},
		MaxWindows: 400,
	}
	committeeTrials, err := committee.allSpecs()
	if err != nil {
		t.Fatal(err)
	}
	trials = append(trials, committeeTrials...)
	if len(trials) == 0 {
		t.Fatal("smoke grid expanded to no trials")
	}
	for _, ts := range trials {
		ts := ts
		name := fmt.Sprintf("%s_%s_%s_%s", ts.Algorithm, ts.Adversary, ts.Scheduler, ts.Size)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			inputs, err := Inputs(ts.Input, ts.Size.N, ts.seed)
			if err != nil {
				t.Fatal(err)
			}
			p := Params{N: ts.Size.N, T: ts.Size.T, Inputs: inputs, Seed: ts.seed}

			// Fresh reference execution.
			sys, err := NewSystem(ts.Algorithm, p)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := NewScheduledAdversary(ts.Adversary, ts.Scheduler, ts.Algorithm, p)
			if err != nil {
				t.Fatal(err)
			}
			fEvents, fRes, fSnap, fErr := traceRun(sys, plan, ts.maxWindows)

			// Recycled execution: construct an engine, dirty it with a
			// warm-up trial on a different seed and input pattern, then
			// rewind it for the target trial. Bypass the global pool so the
			// recycle path is guaranteed to be exercised.
			warmInputs, err := Inputs("ones", ts.Size.N, 99)
			if err != nil {
				t.Fatal(err)
			}
			warm := Params{N: ts.Size.N, T: ts.Size.T, Inputs: warmInputs, Seed: 99}
			key := engineKey{alg: ts.Algorithm, adv: ts.Adversary, sched: ts.Scheduler,
				n: ts.Size.N, t: ts.Size.T}
			e, err := newTrialEngine(key, warm)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(150); err != nil {
				t.Fatalf("warm-up trial: %v", err)
			}
			if err := e.prepare(p); err != nil {
				t.Fatalf("prepare: %v", err)
			}
			rEvents, rRes, rSnap, rErr := traceRun(e.sys, e.plan, ts.maxWindows)

			if (fErr == nil) != (rErr == nil) || (fErr != nil && fErr.Error() != rErr.Error()) {
				t.Fatalf("errors diverged: fresh %v, recycled %v", fErr, rErr)
			}
			if fRes != rRes {
				t.Fatalf("results diverged:\nfresh    %+v\nrecycled %+v", fRes, rRes)
			}
			if len(fEvents) != len(rEvents) {
				t.Fatalf("event counts diverged: fresh %d, recycled %d", len(fEvents), len(rEvents))
			}
			for i := range fEvents {
				if fEvents[i] != rEvents[i] {
					t.Fatalf("event %d diverged:\nfresh    %s\nrecycled %s", i, fEvents[i], rEvents[i])
				}
			}
			for i := range fSnap {
				if fSnap[i] != rSnap[i] {
					t.Fatalf("processor %d state diverged:\nfresh    %q\nrecycled %q", i, fSnap[i], rSnap[i])
				}
			}
		})
	}
}

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
