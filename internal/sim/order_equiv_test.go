package sim_test

import (
	"cmp"
	"slices"
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/bracha"
	"asyncagree/internal/core"
	"asyncagree/internal/paxos"
	"asyncagree/internal/sim"
)

// orderOracle wraps a window adversary and holds every window's delivery
// feed to the reference order: the window's sent messages that the plan's
// rows admit, that are still buffered when the window delivers and whose
// receiver is live, comparison-sorted by (To, From, ID). Install observe as
// the System's OnEvent (or call it from one); each EvWindow closes a window
// and checks it. With takeEvery > 0 it also takes every takeEvery-th batch
// message out of the buffer while planning, which delivery must then skip.
// It counts the non-empty and empty batches it saw, the messages it took and
// the windows it checked.
type orderOracle struct {
	inner     sim.WindowAdversary
	takeEvery int
	t         testing.TB

	s                *sim.System
	rows             []uint64 // the plan's rows, nil for every sender
	taken            map[int64]bool
	sends, delivered []sim.Message
	full, hollow     int
	took, checked    int
}

func (o *orderOracle) PlanDelivery(s *sim.System, batch []sim.Message) sim.Window {
	w := o.inner.PlanDelivery(s, batch)
	o.s = s
	o.rows = nil
	if w.SenderRows != nil {
		o.rows = append(make([]uint64, 0, len(w.SenderRows)), w.SenderRows...)
	}
	if len(batch) == 0 {
		o.hollow++
		return w
	}
	o.full++
	if o.takeEvery > 0 {
		if o.taken == nil {
			o.taken = map[int64]bool{}
		}
		for i := 0; i < len(batch); i += o.takeEvery {
			id := batch[i].ID
			if _, ok := s.Buffer().Take(id); ok {
				o.taken[id] = true
				o.took++
			}
		}
	}
	return w
}

// observe records the window's sends and deliveries, and checks the window
// when it closes.
func (o *orderOracle) observe(ev sim.Event) {
	switch ev.Kind {
	case sim.EvSend:
		o.sends = append(o.sends, ev.Msg)
	case sim.EvDeliver:
		o.delivered = append(o.delivered, ev.Msg)
	case sim.EvWindow:
		o.check(ev.Window - 1)
	}
}

func (o *orderOracle) check(window int) {
	var want []sim.Message
	for _, m := range o.sends {
		if o.taken[m.ID] || o.s.Crashed(m.To) {
			continue
		}
		if row := o.rows; row != nil {
			words := o.s.RowWords()
			if row[int(m.To)*words+int(m.From)>>6]&(1<<(uint(m.From)&63)) == 0 {
				continue
			}
		}
		want = append(want, m)
	}
	slices.SortFunc(want, func(a, b sim.Message) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.From, b.From), cmp.Compare(a.ID, b.ID))
	})
	if len(o.delivered) != len(want) {
		o.t.Fatalf("window %d delivered %d messages, the reference order has %d", window, len(o.delivered), len(want))
	}
	for i, m := range o.delivered {
		if w := want[i]; m.To != w.To || m.From != w.From || m.ID != w.ID {
			o.t.Fatalf("window %d delivery %d is %d>%d#%d, the reference order has %d>%d#%d",
				window, i, m.From, m.To, m.ID, w.From, w.To, w.ID)
		}
	}
	o.sends, o.delivered = o.sends[:0], o.delivered[:0]
	clear(o.taken)
	o.checked++
}

// TestBucketedOrderMatchesComparisonSort runs seeded executions on the
// serial message path and holds every window's delivery feed, which
// bucketByReceiver's counting sort orders, to orderOracle's comparison sort
// of that window's sends. The shapes cover what the counting sort's equality
// argument leans on: several messages per (sender, receiver) pair (Bracha's
// RBC), unicast batches with empty buckets (Paxos), receivers that crash
// after the batch was sent, t = 0 (nil sender rows), messages taken while
// planning, and windows whose batch is empty.
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
			s, err := sim.New(sim.Config{
				N: tc.n, T: tc.t, Seed: 21, Inputs: splitInputs(tc.n), NewProcess: tc.factory,
			})
			if err != nil {
				t.Fatal(err)
			}
			oracle := &orderOracle{inner: tc.adv(), takeEvery: tc.takeEvery, t: t}
			s.OnEvent = oracle.observe
			for w := 0; w < tc.windows; w++ {
				if err := s.ApplyWindowWith(oracle); err != nil {
					t.Fatalf("window %d: %v", w, err)
				}
				if s.Buffer().Len() != 0 {
					t.Fatalf("window %d left %d messages buffered", w, s.Buffer().Len())
				}
			}
			if oracle.checked != tc.windows || oracle.full == 0 || (tc.hollow && oracle.hollow == 0) ||
				(tc.takeEvery > 0 && oracle.took == 0) {
				t.Fatalf("vacuous run: %d windows checked, %d non-empty and %d empty batches, %d messages taken",
					oracle.checked, oracle.full, oracle.hollow, oracle.took)
			}
		})
	}
}
