package registry

import (
	"strings"
	"testing"

	"asyncagree/internal/sim"
)

// badAfter plans full delivery for the first legal windows, then one sender
// row word for the whole system — an illegal window.
type badAfter struct{ legal int }

func (a *badAfter) PlanDelivery(s *sim.System, _ []sim.Message) sim.Window {
	if s.Windows() < a.legal {
		return sim.Window{}
	}
	return sim.Window{SenderRows: make([]uint64, 1)}
}

// withTestAdversary makes a descriptor resolvable by name for one test
// without listing it: AdversaryNames (and so every default matrix in this
// package) never sees it.
func withTestAdversary(t *testing.T, a *Adversary) {
	t.Helper()
	adversaries.mu.Lock()
	adversaries.byName[a.Name] = a
	adversaries.mu.Unlock()
	t.Cleanup(func() {
		adversaries.mu.Lock()
		delete(adversaries.byName, a.Name)
		adversaries.mu.Unlock()
	})
}

// TestRunContained pins the one trial executor: what each way a trial can end
// is classified as, what partial result and fault text it carries, and that
// the engine ledger balances (Acquired == Released + Poisoned) in every case.
func TestRunContained(t *testing.T) {
	withTestAdversary(t, &Adversary{
		Name: "test-illegal",
		New: func(*Algorithm, Params) (sim.WindowAdversary, error) {
			return &badAfter{legal: 2}, nil
		},
	})
	withTestAdversary(t, &Adversary{
		Name: "test-newpanic",
		New: func(*Algorithm, Params) (sim.WindowAdversary, error) {
			panic("constructor boom")
		},
	})
	type ledger struct{ acquired, released, poisoned int64 }
	cases := []struct {
		name       string
		alg, adv   string
		t          int
		expired    func(windows int) bool
		kind       string
		windows    int    // Result.Windows; -1 = do not check
		decided    bool   // Result.AllDecided
		faultFirst string // first line of Fault
		delta      ledger
	}{
		{name: "clean", alg: "core", adv: "full", t: 1,
			kind: "", windows: -1, decided: true, delta: ledger{1, 1, 0}},
		{name: "injected panic on first poll", alg: "core", adv: "full", t: 1,
			expired: func(int) bool { panic("poll boom") },
			kind:    FaultPanic, faultFirst: "panic: poll boom", delta: ledger{1, 0, 1}},
		{name: "stall at window 3", alg: "core", adv: "splitvote", t: 1,
			expired: func(w int) bool { return w >= 3 },
			kind:    FaultDeadline, windows: 3, delta: ledger{1, 1, 0}},
		{name: "illegal window", alg: "core", adv: "test-illegal", t: 1,
			kind: FaultError, windows: 2,
			faultFirst: "sim: window violates acceptable-window constraints: got 1 sender row words for n=12, want 12", delta: ledger{1, 1, 0}},
		{name: "acquire error: unknown adversary", alg: "core", adv: "no-such", t: 1,
			kind: FaultError, faultFirst: `registry: unknown adversary "no-such"`},
		{name: "acquire error: rejected size", alg: "core", adv: "full", t: 3,
			kind: FaultError, faultFirst: "core: 2*T3=6 <= n=12"},
		{name: "panic during acquire", alg: "core", adv: "test-newpanic", t: 1,
			kind: FaultPanic, faultFirst: "panic: constructor boom"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := EngineStatsSnapshot()
			out := RunContained(c.alg, c.adv, "adversary", "split",
				Params{N: 12, T: c.t, Seed: 7}, 500, c.expired, nil)
			after := EngineStatsSnapshot()

			if out.Kind != c.kind {
				t.Fatalf("kind %q, want %q (fault %q)", out.Kind, c.kind, firstLine(out.Fault))
			}
			if !strings.HasPrefix(firstLine(out.Fault), c.faultFirst) || (c.faultFirst == "") != (out.Fault == "") {
				t.Fatalf("fault first line %q, want prefix %q", firstLine(out.Fault), c.faultFirst)
			}
			if c.kind == FaultPanic && !strings.Contains(out.Fault, "goroutine") {
				t.Fatalf("panic fault carries no stack: %q", out.Fault)
			}
			if c.windows >= 0 && out.Result.Windows != c.windows {
				t.Fatalf("result carries %d windows, want %d", out.Result.Windows, c.windows)
			}
			if out.Result.AllDecided != c.decided {
				t.Fatalf("AllDecided = %v, want %v", out.Result.AllDecided, c.decided)
			}
			got := ledger{after.Acquired - before.Acquired, after.Released - before.Released,
				after.Poisoned - before.Poisoned}
			if got != c.delta || after.BlockedReleases != before.BlockedReleases {
				t.Fatalf("engine ledger moved by %+v (blocked releases %d), want %+v",
					got, after.BlockedReleases-before.BlockedReleases, c.delta)
			}
		})
	}

	// The poisoned engine never re-entered its pool: the same scenario still
	// reproduces the clean result.
	p := Params{N: 12, T: 1, Inputs: SplitInputs(12), Seed: 7}
	want, err := RunPooledTrial("core", "full", "adversary", p, 500)
	if err != nil {
		t.Fatal(err)
	}
	if out := RunContained("core", "full", "adversary", "split", p, 500, nil, nil); out.Kind != "" || out.Result != want {
		t.Fatalf("after a poisoned engine: %+v, want clean %+v", out, want)
	}

	// Containment is free: next to TestWarmTrialAllocFree's pin on
	// RunPooledTrial, a clean warm trial through the barrier allocates
	// nothing either (the caller supplies the inputs, as that test does).
	run := func() { RunContained("core", "full", "adversary", "split", p, 500, nil, nil) }
	for i := 0; i < 16; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
		t.Fatalf("contained warm trial allocates %.1f per trial, want 0", allocs)
	}
}
