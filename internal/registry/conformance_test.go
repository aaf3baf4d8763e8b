package registry

import (
	"fmt"
	"slices"
	"testing"

	"asyncagree/internal/sim"
)

// conformanceShapes are the sizes the conformance battery tries, in order: each
// algorithm runs at the first one its Validate accepts (committee's default
// parameterization needs n >= 27).
var conformanceShapes = []Size{{N: 12, T: 1}, {N: 27, T: 3}}

// trialRun is what one execution of a trial shows: its first error, summary
// and final configuration, and, when traced, every event.
type trialRun struct {
	events []string
	res    sim.RunResult
	snap   []string
	err    error
}

// leg is one way of executing a trial. The reference is the zero leg's
// one-worker message path on a fresh engine; a message-path leg is traced, a
// columnar leg is not (tracing would disable the columnar path).
type leg struct {
	columnar, recycled bool
	workers            int
}

// TestConformance holds every registered algorithm to the contracts its
// descriptor declares, so a new algorithm costs a registry entry and no test.
// It and the three differentials below walk one battery: each algorithm runs
// at the first conformance shape n:t its Validate accepts, on split inputs,
// seed 3 and a 400-window budget, under every compatible adversary ×
// scheduler pair.
//
// Here Validate also rejects each of 0:0, n:-1 and n:n that sim.New rejects,
// so a sweep skips such a size instead of faulting its trials, and each trial
// keeps Agreement and Validity where the descriptor declares SafetyCertain,
// and decides everywhere unless it declares BenignTerminationOnly.
func TestConformance(t *testing.T) {
	stub := func(sim.ProcID, sim.Bit) sim.Process { return nil }
	for _, alg := range Algorithms() {
		n := conformanceShape(t, alg).N
		for _, s := range []Size{{N: 0, T: 0}, {N: n, T: -1}, {N: n, T: n}} {
			_, err := sim.New(sim.Config{N: s.N, T: s.T, Inputs: make([]sim.Bit, s.N), NewProcess: stub})
			if err != nil && alg.Validate(Params{N: s.N, T: s.T}) == nil {
				t.Errorf("%s: Validate accepts %s, which sim.New rejects: %v", alg.Name, s, err)
			}
		}
	}
	battery(t, false, func(t *testing.T, alg *Algorithm, ts trialSpec, p Params) {
		run := runLeg(t, ts, p, leg{workers: 1})
		if run.err != nil {
			t.Fatalf("trial failed: %v", run.err)
		}
		res := run.res
		if alg.SafetyCertain && !(res.Agreement && res.Validity) {
			t.Fatalf("SafetyCertain, but the trial broke safety: %+v", res)
		}
		if !alg.BenignTerminationOnly && !res.AllDecided {
			t.Fatalf("not BenignTerminationOnly, but the trial left processors undecided: %+v", res)
		}
	})
}

// TestRecycledTrialMatchesFresh: a recycled engine reproduces the reference's
// every event, summary and final configuration. A recycled engine first runs
// a warm-up trial on another seed and input pattern, so Recycle must rewind
// real state.
func TestRecycledTrialMatchesFresh(t *testing.T) {
	battery(t, false, func(t *testing.T, _ *Algorithm, ts trialSpec, p Params) {
		matchReference(t, ts, p, leg{recycled: true, workers: 1})
	})
}

// TestShardedTrialMatchesSerial: fresh and recycled engines at two and four
// workers reproduce the reference's every event, summary and final
// configuration. Under -race this doubles as the data-race proof of
// sim.Process's concurrency contract.
func TestShardedTrialMatchesSerial(t *testing.T) {
	battery(t, false, func(t *testing.T, _ *Algorithm, ts trialSpec, p Params) {
		matchReference(t, ts, p, leg{workers: 2}, leg{recycled: true, workers: 2},
			leg{workers: 4}, leg{recycled: true, workers: 4})
	})
}

// TestColumnarTrialMatchesMessage: where the descriptor declares
// ColumnarVotes, the columnar path, fresh and recycled at one, two and four
// workers, reproduces the reference's summary and final configuration.
func TestColumnarTrialMatchesMessage(t *testing.T) {
	battery(t, true, func(t *testing.T, _ *Algorithm, ts trialSpec, p Params) {
		var legs []leg
		for _, workers := range []int{1, 2, 4} {
			legs = append(legs, leg{columnar: true, workers: workers},
				leg{columnar: true, recycled: true, workers: workers})
		}
		matchReference(t, ts, p, legs...)
	})
}

// conformanceShape is the first conformance shape alg's Validate accepts.
func conformanceShape(t *testing.T, alg *Algorithm) Size {
	t.Helper()
	i := slices.IndexFunc(conformanceShapes, func(s Size) bool {
		return alg.Validate(Params{N: s.N, T: s.T}) == nil
	})
	if i < 0 {
		t.Fatalf("%s: Validate rejects every conformance shape %v", alg.Name, conformanceShapes)
	}
	return conformanceShapes[i]
}

// battery runs check, in parallel subtests, on every trial of the conformance
// grid, restricted to ColumnarVotes algorithms when columnarOnly is set.
func battery(t *testing.T, columnarOnly bool, check func(*testing.T, *Algorithm, trialSpec, Params)) {
	for _, alg := range Algorithms() {
		if columnarOnly && !alg.ColumnarVotes {
			continue
		}
		shape := conformanceShape(t, alg)
		m := Matrix{Algorithms: []string{alg.Name}, Sizes: []Size{shape},
			Inputs: []string{"split"}, Seeds: []uint64{3}, MaxWindows: 400}
		specs, err := m.allSpecs()
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) == 0 {
			t.Fatalf("%s: no compatible adversary and scheduler at %s", alg.Name, shape)
		}
		for _, ts := range specs {
			t.Run(fmt.Sprintf("%s_%s_%s_%s", ts.Algorithm, ts.Adversary, ts.Scheduler, ts.Size), func(t *testing.T) {
				t.Parallel()
				inputs, err := Inputs(ts.Input, ts.Size.N, ts.seed)
				if err != nil {
					t.Fatal(err)
				}
				check(t, alg, ts, Params{N: ts.Size.N, T: ts.Size.T, Inputs: inputs, Seed: ts.seed})
			})
		}
	}
}

// matchReference runs ts's reference and asserts each leg reproduces it.
func matchReference(t *testing.T, ts trialSpec, p Params, legs ...leg) {
	t.Helper()
	ref := runLeg(t, ts, p, leg{workers: 1})
	if ref.err != nil {
		t.Fatalf("reference run failed: %v", ref.err)
	}
	for _, l := range legs {
		got := runLeg(t, ts, p, l)
		label := fmt.Sprintf("columnar=%v workers=%d recycled=%v", l.columnar, l.workers, l.recycled)
		if got.err != nil {
			t.Fatalf("%s: run failed: %v", label, got.err)
		}
		if got.res != ref.res {
			t.Fatalf("%s: results diverged:\ngot       %+v\nreference %+v", label, got.res, ref.res)
		}
		if i := firstDiff(got.snap, ref.snap); i >= 0 {
			t.Fatalf("%s: configurations diverge at processor %d of %d", label, i, len(ref.snap))
		}
		if i := firstDiff(got.events, ref.events); !l.columnar && i >= 0 {
			t.Fatalf("%s: event feeds diverge at event %d (%d events, reference %d)",
				label, i, len(got.events), len(ref.events))
		}
	}
}

// runLeg executes ts under p as leg l. A columnar leg must engage the
// columnar path, or its comparison would be vacuous.
func runLeg(t *testing.T, ts trialSpec, p Params, l leg) trialRun {
	t.Helper()
	p.ShardWorkers, p.DisableColumnar = l.workers, !l.columnar
	var sys *sim.System
	var plan sim.WindowAdversary
	var err error
	if l.recycled {
		warm := p
		warm.Seed = 99
		if warm.Inputs, err = Inputs("ones", p.N, warm.Seed); err != nil {
			t.Fatal(err)
		}
		key := engineKey{alg: ts.Algorithm, adv: ts.Adversary, sched: ts.Scheduler, n: p.N, t: p.T}
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
		sys, plan = e.sys, e.plan
	} else {
		if sys, err = NewSystem(ts.Algorithm, p); err != nil {
			t.Fatal(err)
		}
		if plan, err = NewScheduledAdversary(ts.Adversary, ts.Scheduler, ts.Algorithm, p); err != nil {
			t.Fatal(err)
		}
	}
	var run trialRun
	if !l.columnar {
		sys.OnEvent = func(ev sim.Event) {
			run.events = append(run.events, fmt.Sprintf("%d w%d p%d %d>%d#%d d%d %v v%d",
				ev.Kind, ev.Window, ev.Proc, ev.Msg.From, ev.Msg.To, ev.Msg.ID, ev.Msg.Depth, ev.Msg.Payload, ev.Value))
		}
	} else if !sys.ColumnarPlanned(plan) {
		t.Fatal("columnar path not planned; the comparison would be vacuous")
	}
	res, err := sys.RunWindows(plan, ts.maxWindows)
	sys.OnEvent = nil
	run.res, run.snap, run.err = res, sys.ConfigurationSnapshot(), err
	return run
}

// firstDiff returns the first index at which a and b differ, counting a
// missing element as a difference, or -1 when they are equal.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestColumnarKnobExcludedFromIdentity pins the performance-knob contract:
// DisableColumnar changes neither the sweep grid signature nor the engine
// pool key, so checkpoints and pooled engines are shared across settings.
func TestColumnarKnobExcludedFromIdentity(t *testing.T) {
	m := Matrix{Algorithms: []string{"core"}, Sizes: []Size{{N: 12, T: 1}},
		Inputs: []string{"split"}, Seeds: []uint64{1}}
	on := m.GridSignature()
	m.DisableColumnar = true
	off := m.GridSignature()
	if on != off {
		t.Fatalf("GridSignature depends on DisableColumnar:\non  %q\noff %q", on, off)
	}

	p := Params{N: 12, T: 1, Inputs: SplitInputs(12), Seed: 1}
	pOff := p
	pOff.DisableColumnar = true
	if extraKey(p) != extraKey(pOff) {
		t.Fatalf("engine pool extraKey depends on DisableColumnar")
	}
}
