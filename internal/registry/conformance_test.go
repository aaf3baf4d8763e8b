package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/sim"
)

// conformanceShapes are the sizes the conformance battery tries, in order: each
// algorithm runs at the first one its Validate accepts (committee's
// elections at 12 end at a final committee of 3, too few for its Bracha
// agreement).
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
// would disable the columnar path). A message-path leg with sendTwice plans
// through sendsOnce.
type leg struct {
	columnar, recycled, untraced, sendTwice bool
	workers                                 int
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
// and decides wherever Pair promises Decides: under every plan class the
// algorithm's Runs table maps to Decides, and under full delivery. Its
// message-path reference leg also holds every process, after every
// window's sends, to sim.Process's Send contract (sendsOnce).
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
		checked := reference
		checked.sendTwice = true
		run := runLeg(t, ts, p, checked)
		if run.err != nil {
			t.Fatalf("trial failed: %v", run.err)
		}
		res := run.res
		if alg.SafetyCertain && !(res.Agreement && res.Validity) {
			t.Fatalf("SafetyCertain, but the trial broke safety: %+v", res)
		}
		promise, _, err := Pair(ts.Algorithm, ts.Adversary, ts.Scheduler)
		if err != nil {
			t.Fatal(err)
		}
		if promise == Decides && !res.AllDecided {
			t.Fatalf("Pair promises Decides, but the trial left processors undecided (%s): %+v",
				quiescence(t, ts, p), res)
		}
	})
}

// sendsOnce plans as its plan does, but first holds every process to
// sim.Process's Send contract, on which the quiescent skip rests: a second
// Send with no Deliver or Reset since the window's sending step returns
// nothing and changes neither Output nor Snapshot.
type sendsOnce struct {
	sim.WindowAdversary
	t *testing.T
}

// PlanDelivery implements sim.WindowAdversary.
func (a sendsOnce) PlanDelivery(s *sim.System, batch []sim.Message) sim.Window {
	for id := range sim.ProcID(s.N()) {
		if s.Crashed(id) || s.Corrupted(id) {
			continue
		}
		p := s.Proc(id)
		out, ok := p.Output()
		snap := p.Snapshot()
		if again := p.Send(); len(again) > 0 {
			a.t.Fatalf("window %d: processor %d sent %d messages on a second Send", s.Windows(), id, len(again))
		}
		if out2, ok2 := p.Output(); out2 != out || ok2 != ok || p.Snapshot() != snap {
			a.t.Fatalf("window %d: a second Send moved processor %d's output or state", s.Windows(), id)
		}
	}
	return a.WindowAdversary.PlanDelivery(s, batch)
}

// quiescence says why an undecided trial stopped: it reruns ts on a pooled
// engine, which declares a plan that never resets, and reports the window at
// which the run went quiescent: no processor sent, received or was reset
// from then on, so it could never decide.
func quiescence(t *testing.T, ts trialSpec, p Params) string {
	t.Helper()
	e, err := AcquireTrial(ts.Algorithm, ts.Adversary, ts.Scheduler, p)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	if _, err := e.Run(ts.maxWindows); err != nil {
		return fmt.Sprintf("its engine rerun failed: %v", err)
	}
	if from, ok := e.System().Quiescent(); ok {
		return fmt.Sprintf("quiescent from window %d of %d: nothing sent, received or reset after it", from, ts.maxWindows)
	}
	return fmt.Sprintf("still active at the %d-window budget", ts.maxWindows)
}

// pinnedFeeds pins the whole traced event feed of five scenarios by digest:
// every event's kind, window and processor, and its message's ID, sender,
// receiver, depth and payload, on split inputs, seed 3 and a 120-window
// budget. The digests were taken from the per-copy send path that stored
// each copy of a broadcast as its own message, so they hold the broadcast
// records to that path copy by copy: one EvSend per copy, IDs in ascending
// receiver order, the same delivery order. Each scenario sends to all in a
// different way: Bracha's full-system RBC engine (under full delivery, and
// under per-receiver subsets with the seeded scheduler), committee's floods
// beside its scoped group engines, Paxos's broadcasts beside its unicasts,
// and core's broadcast queue on the message path (traced, so not columnar).
// The three RBC digests were re-taken when tags went from string labels to
// integer instance ids, which print in the labels' place; printed back as
// the labels, the new feeds hash to the old digests, so no event moved.
var pinnedFeeds = []struct {
	alg, adv, sched string
	size            Size
	digest          string
}{
	{"bracha", "full", "adversary", Size{N: 13, T: 4}, "0007400cbc6a4c120c75cc552e2f25648a5939bf0f95ce564ff0a6bbd265aea2"},
	{"bracha", "full", "seeded", Size{N: 18, T: 2}, "ba00fd7840c5f4b0ab91970e0f99cc2d21a5a34c01a8b2d52a431d164d215150"},
	{"committee", "full", "adversary", Size{N: 27, T: 3}, "69f0e65cc3d2d93fa743807720a945288dba97debb0d5eb6f002d72b2b98891e"},
	{"paxos", "full", "adversary", Size{N: 12, T: 5}, "b331402953eab1df2a5960b4a1fb796a9a5d0d503ec3b1d2cac083d2e43d604f"},
	{"core", "splitvote", "adversary", Size{N: 12, T: 1}, "ade1c07d90d7efd88fcc8801ea14c6bc2cc11de9aea9270ad45514a14782c7a2"},
}

// TestEventFeedsMatchPinned runs each pinned scenario as the reference leg
// and compares the SHA-256 of its event feed, one formatted event per line,
// to the pinned digest.
func TestEventFeedsMatchPinned(t *testing.T) {
	for _, pf := range pinnedFeeds {
		m := Matrix{Algorithms: []string{pf.alg}, Adversaries: []string{pf.adv}, Schedulers: []string{pf.sched},
			Sizes: []Size{pf.size}, Inputs: []string{"split"}, Seeds: []uint64{3}, MaxWindows: 120}
		grid(t, m, func(t *testing.T, _ *Algorithm, ts trialSpec, p Params) {
			run := runLeg(t, ts, p, reference)
			if run.err != nil {
				t.Fatalf("trial failed: %v", run.err)
			}
			h := sha256.New()
			for _, ev := range run.events {
				h.Write([]byte(ev))
				h.Write([]byte{'\n'})
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pf.digest {
				t.Errorf("event feed of %d events hashes to %s, pinned %s", len(run.events), got, pf.digest)
			}
		})
	}
}

// TestRecycledTrialMatchesFresh: a recycled engine reproduces the reference's
// every event, summary and final configuration. A recycled engine first runs
// a warm-up trial on another seed and input pattern, so Recycle must rewind
// real state.
//
// Its recycled legs are where the battery holds the quiescent skip (DESIGN.md
// §2): a pooled engine declares a plan that never resets, while the fresh
// reference never does and walks every window. The test fails if no leg
// skipped a window, as its comparison would then not cover the skip.
func TestRecycledTrialMatchesFresh(t *testing.T) {
	skipped := EngineStatsSnapshot().SkippedWindows
	t.Cleanup(func() { // after every parallel subtest
		if EngineStatsSnapshot().SkippedWindows == skipped {
			t.Error("no recycled leg skipped a quiescent window; the skip went untested")
		}
	})
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

// TestWarmTrialAllocFree holds every algorithm's warm pooled trial to zero
// allocations: acquiring an engine from the pool, recycling it, running the
// trial and releasing the engine allocate nothing once the engine has run
// the trial before. It runs every trial of the battery, and committee under
// full delivery at 81:3, where elections take two levels and sender bitsets
// two words. Its subtests run one at a time, as testing.AllocsPerRun counts
// the whole process's allocations; its mean over ten trials is rounded
// down, so a stray allocation elsewhere in the process does not fail a
// trial, while one per trial does.
func TestWarmTrialAllocFree(t *testing.T) {
	check := func(t *testing.T, _ *Algorithm, ts trialSpec, p Params) {
		run := func() {
			if _, err := RunPooledTrial(ts.Algorithm, ts.Adversary, ts.Scheduler, p, ts.maxWindows); err != nil {
				t.Fatal(err)
			}
		}
		run() // builds the engine; AllocsPerRun's own first call warms it
		if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
			t.Fatalf("a warm pooled trial allocates %.0f, want 0", allocs)
		}
	}
	for _, alg := range Algorithms() {
		serialGrid(t, batteryMatrix(t, alg), check)
	}
	serialGrid(t, Matrix{Algorithms: []string{"committee"}, Adversaries: []string{"full"},
		Schedulers: []string{"adversary"}, Sizes: []Size{{N: 81, T: 3}}, Inputs: []string{"split"},
		Seeds: []uint64{3}, MaxWindows: 400}, check)
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

// battery runs check on every trial of the conformance grid of algs.
func battery(t *testing.T, algs []*Algorithm, check func(*testing.T, *Algorithm, trialSpec, Params)) {
	for _, alg := range algs {
		grid(t, batteryMatrix(t, alg), check)
	}
}

// batteryMatrix is alg's conformance grid: alg at its conformance shape, on
// split inputs, seed 3 and a 400-window budget.
func batteryMatrix(t *testing.T, alg *Algorithm) Matrix {
	return Matrix{Algorithms: []string{alg.Name}, Sizes: []Size{conformanceShape(t, alg)},
		Inputs: []string{"split"}, Seeds: []uint64{3}, MaxWindows: 400}
}

// grid runs check, in parallel subtests, on every trial of m.
func grid(t *testing.T, m Matrix, check func(*testing.T, *Algorithm, trialSpec, Params)) {
	serialGrid(t, m, func(t *testing.T, alg *Algorithm, ts trialSpec, p Params) {
		t.Parallel()
		check(t, alg, ts, p)
	})
}

// serialGrid runs check, in subtests that run one at a time, on every trial
// of m. A subtest is named algorithm_adversary_scheduler_size, with _input
// added for inputs other than split.
func serialGrid(t *testing.T, m Matrix, check func(*testing.T, *Algorithm, trialSpec, Params)) {
	cells, resolved, _, err := m.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatalf("no compatible trial in %v at %v", m.Algorithms, m.Sizes)
	}
	for i := range len(cells) * len(resolved.Seeds) {
		ts := resolved.specAt(cells, i)
		alg, err := LookupAlgorithm(ts.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s_%s_%s_%s", ts.Algorithm, ts.Adversary, ts.Scheduler, ts.Size)
		if ts.Input != "split" {
			name += "_" + ts.Input
		}
		t.Run(name, func(t *testing.T) {
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
// also proves prepare switched the columnar path back on. The warm-up also
// walks every window, undeclared, so a recycled leg that skips proves
// prepare declared the plan again.
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
		e.sys.SetNeverResets(false)
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
		if l.sendTwice {
			plan = sendsOnce{plan, t}
		}
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
