package sched

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/core"
	"asyncagree/internal/sim"
)

// newCoreSystem builds a core-algorithm system with split inputs, the
// workhorse target the scheduler properties are checked against.
func newCoreSystem(t *testing.T, n, tt int, seed uint64) *sim.System {
	t.Helper()
	th, err := core.DefaultThresholds(n, tt)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]sim.Bit, n)
	for i := range inputs {
		inputs[i] = sim.Bit(i % 2)
	}
	s, err := sim.New(sim.Config{
		N: n, T: tt, Seed: seed, Inputs: inputs,
		NewProcess: core.NewFactory(n, tt, th),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// builders constructs one fresh instance of every scheduler strategy in the
// package (the registry wraps exactly these).
func builders(seed uint64) map[string]func() Scheduler {
	return map[string]func() Scheduler{
		"adversary": func() Scheduler { return AdversaryDriven{} },
		"full":      func() Scheduler { return FullDelivery{} },
		"ascmin":    func() Scheduler { return NewAscendingMinimal() },
		"seeded":    func() Scheduler { return NewSeededRandom(seed) },
		"laggard":   func() Scheduler { return NewLaggard(0, 0) },
		"alternate": func() Scheduler { return NewAlternate() },
	}
}

// snapshotPlan deep-copies a plan (its rows are the System's scratch).
func snapshotPlan(plan sim.Window) sim.Window {
	return sim.Window{SenderRows: slices.Clone(plan.SenderRows)}
}

// checkedPlan is a WindowAdversary that plans through plan and hands every
// window to check before the System sees it.
type checkedPlan struct {
	plan  func(s *sim.System, batch []sim.Message) sim.Window
	check func(s *sim.System, w sim.Window)
}

func (c checkedPlan) PlanDelivery(s *sim.System, batch []sim.Message) sim.Window {
	w := c.plan(s, batch)
	c.check(s, w)
	return w
}

// TestSchedulersEmitAcceptableWindows is the Definition 1 property test:
// every strategy, at every (n, t) shape of the default sweep grid, plans
// only legal windows — n rows or none, each receiver admitting >= n-t
// senders — across enough windows to cross laggard epochs and alternate
// parity, and the windows it plans are accepted by the simulator. The
// per-receiver row adversary is also composed with a uniform and a
// per-receiver scheduler: the spliced window must hold the scheduler's rows.
func TestSchedulersEmitAcceptableWindows(t *testing.T) {
	sizes := [][2]int{{12, 1}, {18, 2}, {24, 3}, {27, 3}, {13, 2}, {7, 1}}
	plans := map[string]func() func(*sim.System, []sim.Message) sim.Window{}
	for name, build := range builders(7) {
		plans[name] = func() func(*sim.System, []sim.Message) sim.Window { return build().PlanSenders }
	}
	for _, name := range []string{"laggard", "seeded"} {
		build := builders(7)[name]
		plans["random+"+name] = func() func(*sim.System, []sim.Message) sim.Window {
			return Compose(adversary.NewRandomWindows(9, 0.5, 2), build()).PlanDelivery
		}
	}
	for name, build := range plans {
		for _, nt := range sizes {
			n, tt := nt[0], nt[1]
			t.Run(fmt.Sprintf("%s/%d:%d", name, n, tt), func(t *testing.T) {
				s := newCoreSystem(t, n, tt, 1)
				adv := checkedPlan{plan: build(), check: func(s *sim.System, w sim.Window) {
					at := s.Windows()
					if w.SenderRows != nil && len(w.SenderRows) != n*s.RowWords() {
						t.Fatalf("window %d: %d row words for n=%d", at, len(w.SenderRows), n)
					}
					for i := 0; i < n; i++ {
						admitted := 0
						for p := 0; p < n; p++ {
							if w.Admits(n, sim.ProcID(i), sim.ProcID(p)) {
								admitted++
							}
						}
						if admitted < n-tt {
							t.Fatalf("window %d receiver %d: %d distinct senders < n-t=%d", at, i, admitted, n-tt)
						}
					}
				}}
				for w := 0; w < 40; w++ {
					if err := s.ApplyWindowWith(adv); err != nil {
						t.Fatalf("window %d rejected: %v", w, err)
					}
				}
			})
		}
	}
}

// TestSeededRandomReproducible pins the determinism contract: equal seeds
// replay the exact same delivery schedule, and different seeds diverge.
func TestSeededRandomReproducible(t *testing.T) {
	const n, tt, windows = 18, 2, 25
	plansFor := func(seed uint64) []sim.Window {
		s := newCoreSystem(t, n, tt, 1)
		sch := NewSeededRandom(seed)
		var plans []sim.Window
		adv := checkedPlan{plan: sch.PlanSenders, check: func(_ *sim.System, w sim.Window) {
			plans = append(plans, snapshotPlan(w))
		}}
		for w := 0; w < windows; w++ {
			if err := s.ApplyWindowWith(adv); err != nil {
				t.Fatal(err)
			}
		}
		return plans
	}
	a, b := plansFor(42), plansFor(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different delivery schedules")
	}
	if reflect.DeepEqual(a, plansFor(43)) {
		t.Fatal("different seeds produced identical delivery schedules")
	}
}

// TestLaggardRotates asserts the laggard set actually moves through the
// ring: over enough epochs every processor is starved at least once, so the
// discipline is bounded unfairness, not fixed silence.
func TestLaggardRotates(t *testing.T) {
	const n, tt = 18, 2
	s := newCoreSystem(t, n, tt, 1)
	sch := NewLaggard(0, 4)
	starved := map[sim.ProcID]bool{}
	for w := 0; w < 4*(n/tt+1); w++ {
		for _, p := range sch.Starved(n, tt) {
			starved[p] = true
		}
		batch := s.WindowSend()
		plan := sch.PlanSenders(s, batch)
		for i := 0; i < n; i++ {
			admitted := 0
			for p := 0; p < n; p++ {
				if plan.Admits(n, sim.ProcID(i), sim.ProcID(p)) {
					admitted++
				}
			}
			if admitted != n-tt {
				t.Fatalf("window %d receiver %d admits %d senders, want n-k=%d", w, i, admitted, n-tt)
			}
		}
		for _, p := range sch.Starved(n, tt) {
			if plan.Admits(n, 0, p) {
				t.Fatalf("window %d: starved processor %d was admitted", w, p)
			}
		}
		if err := s.WindowDeliver(plan.SenderRows); err != nil {
			t.Fatal(err)
		}
	}
	if len(starved) != n {
		t.Fatalf("only %d/%d processors were ever starved: %v", len(starved), n, starved)
	}
}

// TestComposeIdentity pins the byte-identical default: composing any
// adversary with the AdversaryDriven scheduler (or nil) returns the
// adversary itself, so the pre-scheduler execution path is untouched.
func TestComposeIdentity(t *testing.T) {
	var adv sim.WindowAdversary = stubAdversary{}
	if got := Compose(adv, AdversaryDriven{}); got != adv {
		t.Fatalf("Compose(adv, AdversaryDriven{}) = %T, want the adversary itself", got)
	}
	if got := Compose(adv, nil); got != adv {
		t.Fatalf("Compose(adv, nil) = %T, want the adversary itself", got)
	}
	if got := Compose(adv, FullDelivery{}); got == adv {
		t.Fatal("Compose with a real scheduler must wrap the adversary")
	}
}

// stubAdversary is a minimal WindowAdversary for identity checks.
type stubAdversary struct{}

func (stubAdversary) PlanDelivery(*sim.System, []sim.Message) sim.Window { return sim.Window{} }

// TestComposeKeepsResets asserts the split of responsibilities: the
// scheduler overrides delivery, the adversary keeps its resets.
func TestComposeKeepsResets(t *testing.T) {
	s := newCoreSystem(t, 12, 1, 1)
	adv := resettingAdversary{}
	composed := Compose(adv, NewAscendingMinimal())
	batch := s.WindowSend()
	w := composed.PlanDelivery(s, batch)
	if len(w.Resets) != 1 || w.Resets[0] != 3 {
		t.Fatalf("resets = %v, want the adversary's [3]", w.Resets)
	}
	for p := 0; p < 12; p++ {
		if w.Admits(12, 5, sim.ProcID(p)) != (p < 11) {
			t.Fatalf("receiver 5 admits sender %d: %v, want the scheduler's n-t lowest", p, !(p < 11))
		}
	}
}

// resettingAdversary plans full delivery plus one fixed reset.
type resettingAdversary struct{}

func (resettingAdversary) PlanDelivery(*sim.System, []sim.Message) sim.Window {
	return sim.Window{Resets: []sim.ProcID{3}}
}
