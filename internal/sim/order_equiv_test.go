package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/bracha"
	"asyncagree/internal/core"
	"asyncagree/internal/paxos"
	"asyncagree/internal/sim"
)

// orderProbe wraps a window adversary for the ordering differential below.
// With disown set it turns every just-sent batch into a hand-built one after
// planning, so the run takes WindowDeliver's comparison sort instead of the
// counting sort; with takeEvery > 0 it also consumes every takeEvery-th
// batch message from the buffer while planning, which both orders must then
// skip. It counts the non-empty and empty batches it saw.
type orderProbe struct {
	inner     sim.WindowAdversary
	disown    bool
	takeEvery int

	t            *testing.T
	full, hollow int
}

func (p *orderProbe) PlanDelivery(s *sim.System, batch []sim.Message) sim.Window {
	w := p.inner.PlanDelivery(s, batch)
	if len(batch) == 0 {
		p.hollow++
		return w
	}
	p.full++
	if !s.OwnBatch(batch) {
		p.t.Fatal("a just-sent batch is not recognized as the System's own")
	}
	if p.takeEvery > 0 {
		for i := 0; i < len(batch); i += p.takeEvery {
			s.Buffer().Take(batch[i].ID)
		}
	}
	if p.disown {
		s.DisownBatch()
		if s.OwnBatch(batch) {
			p.t.Fatal("a disowned batch still takes the counting sort; the reference run would be vacuous")
		}
	}
	return w
}

// TestBucketedOrderMatchesComparisonSort runs the same seeded execution
// twice on the serial message path — once ordered by bucketByReceiver (the
// System's own batch), once by the (To, From, ID) comparison sort (the same
// batch made hand-built) — and requires identical event feeds, results and
// final configurations. The shapes cover what the counting sort's equality
// argument leans on: several messages per (sender, receiver) pair (Bracha's
// RBC), unicast batches with empty buckets (Paxos), receivers that crash
// after the batch was sent, t = 0 (nil sender rows), a message consumed
// while planning, and windows whose batch is empty.
func TestBucketedOrderMatchesComparisonSort(t *testing.T) {
	th, err := core.DefaultThresholds(13, 2)
	if err != nil {
		t.Fatal(err)
	}
	crashes := func(inner sim.WindowAdversary, at map[int][]sim.ProcID) sim.WindowAdversary {
		return &adversary.CrashSchedule{Inner: inner, CrashAt: at}
	}
	cases := []struct {
		name      string
		n, t      int
		factory   func(sim.ProcID, sim.Bit) sim.Process
		adv       func() sim.WindowAdversary
		takeEvery int
		windows   int
		hollow    bool // the run must contain empty batches
	}{
		{name: "bracha random windows with resets", n: 7, t: 2, factory: bracha.NewFactory(7, 2),
			adv: func() sim.WindowAdversary { return adversary.NewRandomWindows(3, 0.5, 2) }, windows: 60},
		{name: "core message path under reset storm", n: 13, t: 2, factory: core.NewFactory(13, 2, th),
			adv: func() sim.WindowAdversary { return adversary.NewResetStorm() }, windows: 40},
		{name: "t=0 nil sender rows", n: 4, t: 0, factory: bracha.NewFactory(4, 0),
			adv: func() sim.WindowAdversary { return adversary.NewRandomWindows(5, 0, 0) }, windows: 30},
		{name: "paxos unicast batches", n: 5, t: 2,
			factory: paxos.NewFactory(paxos.Params{N: 5, Proposers: []sim.ProcID{1, 3}}),
			adv:     func() sim.WindowAdversary { return adversary.NewRandomWindows(9, 0, 0) }, windows: 30},
		{name: "receivers crash after the send", n: 7, t: 2, factory: bracha.NewFactory(7, 2),
			adv: func() sim.WindowAdversary {
				return crashes(adversary.NewRandomWindows(4, 0, 0), map[int][]sim.ProcID{1: {2}, 4: {6}})
			}, windows: 60},
		{name: "message taken while planning", n: 7, t: 2, factory: bracha.NewFactory(7, 2),
			adv: func() sim.WindowAdversary { return adversary.FullDelivery{} }, takeEvery: 5, windows: 40},
		{name: "every sender crashed", n: 3, t: 1,
			factory: paxos.NewFactory(paxos.Params{N: 3, Proposers: []sim.ProcID{0}}),
			adv: func() sim.WindowAdversary {
				return crashes(adversary.FullDelivery{}, map[int][]sim.ProcID{0: {0}})
			}, windows: 6, hollow: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(disown bool) (events []string, res sim.RunResult, snap []string, probe *orderProbe) {
				s, err := sim.New(sim.Config{
					N: tc.n, T: tc.t, Seed: 21, Inputs: splitInputs(tc.n), NewProcess: tc.factory,
				})
				if err != nil {
					t.Fatal(err)
				}
				s.OnEvent = func(ev sim.Event) {
					events = append(events, fmt.Sprintf("%d w%d p%d %d>%d#%d d%d v%d",
						ev.Kind, ev.Window, ev.Proc, ev.Msg.From, ev.Msg.To, ev.Msg.ID, ev.Msg.Depth, ev.Value))
				}
				probe = &orderProbe{inner: tc.adv(), disown: disown, takeEvery: tc.takeEvery, t: t}
				for w := 0; w < tc.windows; w++ {
					if err := s.ApplyWindowWith(probe); err != nil {
						t.Fatalf("window %d: %v", w, err)
					}
					if s.Buffer().Len() != 0 {
						t.Fatalf("window %d left %d messages buffered", w, s.Buffer().Len())
					}
				}
				return events, s.Result(), s.ConfigurationSnapshot(), probe
			}
			bEvents, bRes, bSnap, probe := run(false)
			sEvents, sRes, sSnap, _ := run(true)
			if probe.full == 0 || (tc.hollow && probe.hollow == 0) {
				t.Fatalf("vacuous run: %d non-empty and %d empty batches", probe.full, probe.hollow)
			}
			if bRes != sRes {
				t.Fatalf("results diverged:\nbucketed %+v\nsorted   %+v", bRes, sRes)
			}
			if !slices.Equal(bSnap, sSnap) {
				t.Fatalf("configurations diverged:\nbucketed %q\nsorted   %q", bSnap, sSnap)
			}
			if len(bEvents) != len(sEvents) {
				t.Fatalf("event counts diverged: bucketed %d, sorted %d", len(bEvents), len(sEvents))
			}
			for i := range bEvents {
				if bEvents[i] != sEvents[i] {
					t.Fatalf("event %d diverged:\nbucketed %s\nsorted   %s", i, bEvents[i], sEvents[i])
				}
			}
		})
	}
}
