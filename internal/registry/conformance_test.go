package registry

import (
	"fmt"
	"slices"
	"testing"

	"asyncagree/internal/adversary"
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

// leg is one way of executing a trial. The usual reference is the traced
// one-worker message path on a fresh engine, reference below. A message-path
// leg is traced unless untraced is set; a columnar leg never is (tracing
// would disable the columnar path).
type leg struct {
	columnar, recycled, untraced bool
	workers                      int
}

// reference is the leg every other leg of the battery is held to.
var reference = leg{workers: 1}

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
	battery(t, Algorithms(), func(t *testing.T, alg *Algorithm, ts trialSpec, p Params) {
		run := runLeg(t, ts, p, reference)
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
	battery(t, Algorithms(), func(t *testing.T, _ *Algorithm, ts trialSpec, p Params) {
		matchReference(t, ts, p, reference, leg{recycled: true, workers: 1})
	})
}

// TestShardedTrialMatchesSerial: fresh and recycled engines at two and four
// workers reproduce the reference's every event, summary and final
// configuration. Under -race this doubles as the data-race proof of
// sim.Process's concurrency contract. A larger grid follows for the
// message-path algorithms Paxos and Bracha, held to the untraced message
// path at one worker by fresh and recycled engines at four: 48:6 under the
// row-planning adversaries and schedulers on split and unanimous inputs.
// Core and Ben-Or have their four-worker legs at 48:6 and above in
// TestColumnarTrialMatchesMessage.
func TestShardedTrialMatchesSerial(t *testing.T) {
	battery(t, Algorithms(), func(t *testing.T, _ *Algorithm, ts trialSpec, p Params) {
		matchReference(t, ts, p, reference, leg{workers: 2}, leg{recycled: true, workers: 2},
			leg{workers: 4}, leg{recycled: true, workers: 4})
	})

	m := Matrix{Algorithms: []string{"paxos", "bracha"},
		Adversaries: []string{"full", "splitvote", "subsets", "random"},
		Schedulers:  []string{"adversary", "seeded"}, Sizes: []Size{{N: 48, T: 6}},
		Inputs: []string{"split", "ones"}, Seeds: []uint64{1}, MaxWindows: 2000}
	grid(t, m, func(t *testing.T, _ *Algorithm, ts trialSpec, p Params) {
		matchReference(t, ts, p, leg{untraced: true, workers: 1},
			leg{untraced: true, workers: 4}, leg{untraced: true, recycled: true, workers: 4})
	})
}

// TestColumnarTrialMatchesMessage: for every algorithm whose processes take
// the columnar path (columnarAlgorithms), the columnar path, fresh and
// recycled at one, two and four workers, reproduces the reference's summary
// and final configuration. Two larger grids follow, held to the untraced
// message path at one and four workers (tracing at n = 200 is too slow): 48:6
// under the row-planning adversaries and schedulers on split and unanimous
// inputs, and 130:16 and 200:24, where a receiver's senders span three and
// four 64-bit words, so threshold crossings fall after words the ledger scan
// applied whole and core's post-reset walk crosses words.
func TestColumnarTrialMatchesMessage(t *testing.T) {
	algs := columnarAlgorithms(t)
	if len(algs) == 0 {
		t.Fatal("no algorithm takes the columnar path; the test would be vacuous")
	}
	var legs []leg
	for _, workers := range []int{1, 2, 4} {
		legs = append(legs, leg{columnar: true, workers: workers},
			leg{columnar: true, recycled: true, workers: workers})
	}
	battery(t, algs, func(t *testing.T, _ *Algorithm, ts trialSpec, p Params) {
		matchReference(t, ts, p, reference, legs...)
	})

	var names []string
	for _, alg := range algs {
		names = append(names, alg.Name)
	}
	for _, m := range []Matrix{
		{Adversaries: []string{"full", "splitvote", "subsets", "random"},
			Schedulers: []string{"adversary", "seeded"}, Sizes: []Size{{N: 48, T: 6}},
			Inputs: []string{"split", "ones"}, MaxWindows: 2000},
		{Adversaries: []string{"full", "splitvote", "storm"},
			Schedulers: []string{"adversary", "laggard"}, Sizes: []Size{{N: 130, T: 16}, {N: 200, T: 24}},
			Inputs: []string{"split"}, MaxWindows: 200},
	} {
		m.Algorithms, m.Seeds = names, []uint64{1}
		grid(t, m, func(t *testing.T, _ *Algorithm, ts trialSpec, p Params) {
			matchReference(t, ts, p, leg{untraced: true, workers: 1},
				leg{columnar: true, workers: 1}, leg{columnar: true, workers: 4})
		})
	}
}

// columnarAlgorithms returns the algorithms whose processes take the columnar
// path: a fresh System of each, at its conformance shape, reports
// ColumnarPlanned under full delivery.
func columnarAlgorithms(t *testing.T) []*Algorithm {
	var algs []*Algorithm
	for _, alg := range Algorithms() {
		shape := conformanceShape(t, alg)
		sys, err := NewSystem(alg.Name, Params{N: shape.N, T: shape.T, Inputs: SplitInputs(shape.N), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if sys.ColumnarPlanned(adversary.FullDelivery{}) {
			algs = append(algs, alg)
		}
	}
	return algs
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

// battery runs check on every trial of the conformance grid of algs: each
// algorithm at its conformance shape, on split inputs, seed 3 and a
// 400-window budget.
func battery(t *testing.T, algs []*Algorithm, check func(*testing.T, *Algorithm, trialSpec, Params)) {
	for _, alg := range algs {
		grid(t, Matrix{Algorithms: []string{alg.Name}, Sizes: []Size{conformanceShape(t, alg)},
			Inputs: []string{"split"}, Seeds: []uint64{3}, MaxWindows: 400}, check)
	}
}

// grid runs check, in parallel subtests, on every trial of m. A subtest is
// named algorithm_adversary_scheduler_size, with _input added for inputs
// other than split.
func grid(t *testing.T, m Matrix, check func(*testing.T, *Algorithm, trialSpec, Params)) {
	specs, err := m.allSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatalf("no compatible trial in %v at %v", m.Algorithms, m.Sizes)
	}
	for _, ts := range specs {
		alg, err := LookupAlgorithm(ts.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s_%s_%s_%s", ts.Algorithm, ts.Adversary, ts.Scheduler, ts.Size)
		if ts.Input != "split" {
			name += "_" + ts.Input
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			inputs, err := Inputs(ts.Input, ts.Size.N, ts.seed)
			if err != nil {
				t.Fatal(err)
			}
			check(t, alg, ts, Params{N: ts.Size.N, T: ts.Size.T, Inputs: inputs, Seed: ts.seed})
		})
	}
}

// matchReference runs ts as ref and asserts each leg reproduces it: the
// summary and final configuration always, the event feed where both are
// traced.
func matchReference(t *testing.T, ts trialSpec, p Params, ref leg, legs ...leg) {
	t.Helper()
	want := runLeg(t, ts, p, ref)
	if want.err != nil {
		t.Fatalf("reference run failed: %v", want.err)
	}
	for _, l := range legs {
		got := runLeg(t, ts, p, l)
		label := fmt.Sprintf("columnar=%v workers=%d recycled=%v", l.columnar, l.workers, l.recycled)
		if got.err != nil {
			t.Fatalf("%s: run failed: %v", label, got.err)
		}
		if got.res != want.res {
			t.Fatalf("%s: results diverged:\ngot       %+v\nreference %+v", label, got.res, want.res)
		}
		if i := firstDiff(got.snap, want.snap); i >= 0 {
			t.Fatalf("%s: configurations diverge at processor %d of %d", label, i, len(want.snap))
		}
		if i := firstDiff(got.events, want.events); l.traced() && ref.traced() && i >= 0 {
			t.Fatalf("%s: event feeds diverge at event %d (%d events, reference %d)",
				label, i, len(got.events), len(want.events))
		}
	}
}

// traced reports whether leg l records its event feed.
func (l leg) traced() bool { return !l.columnar && !l.untraced }

// runLeg executes ts under p as leg l. A columnar leg must engage the
// columnar path, or its comparison would be vacuous; a recycled engine's
// warm-up trial runs on messages, so on a recycled columnar leg that check
// also proves prepare switched the columnar path back on.
func runLeg(t *testing.T, ts trialSpec, p Params, l leg) trialRun {
	t.Helper()
	p.ShardWorkers = l.workers
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
		e.sys.SetColumnar(false)
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
		sys.SetColumnar(false)
	} else if !sys.ColumnarPlanned(plan) {
		t.Fatal("columnar path not planned; the comparison would be vacuous")
	}
	if l.traced() {
		sys.OnEvent = func(ev sim.Event) {
			run.events = append(run.events, fmt.Sprintf("%d w%d p%d %d>%d#%d d%d %v v%d",
				ev.Kind, ev.Window, ev.Proc, ev.Msg.From, ev.Msg.To, ev.Msg.ID, ev.Msg.Depth, ev.Msg.Payload, ev.Value))
		}
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
