package registry

import (
	"fmt"
	"slices"
	"testing"

	"asyncagree/internal/sim"
)

// panicky wraps a columnar-capable process and panics once, in the middle of
// the receiving steps of one window: in its boomAt-th Deliver of that window
// on the message path, in that window's DeliverTally on the columnar path. A
// process sends exactly once per window, so its own send count is the window
// clock. It hides the inner Recycler, so every trial starts it fresh.
type panicky struct {
	sim.Process
	window, boomAt int // 0-based window; boomAt < 0 never panics
	sends, got     int
}

func (p *panicky) Send() []sim.Message {
	p.sends, p.got = p.sends+1, 0
	return p.Process.Send()
}

func (p *panicky) SendColumnar(pub sim.VotePublisher) {
	p.sends, p.got = p.sends+1, 0
	p.Process.(sim.VoteBroadcaster).SendColumnar(pub)
}

func (p *panicky) boom() {
	if p.boomAt >= 0 && p.sends == p.window+1 {
		panic(fmt.Sprintf("boom at processor %d", p.ID()))
	}
}

func (p *panicky) Deliver(m sim.Message, r sim.RandSource) {
	if p.got++; p.got == p.boomAt {
		p.boom()
	}
	p.Process.Deliver(m, r)
}

func (p *panicky) DeliverTally(t *sim.WindowTally, r sim.RandSource) {
	p.boom()
	p.Process.(sim.TallyReceiver).DeliverTally(t, r)
}

// TestMergePanicContract pins what the window core's merge leaves behind
// when a process panics mid-range: the panic value, the step count, the
// first-decision window, every processor's decision window and the events
// emitted before the panic are the same whether the caller walked the one
// range [0, n) or 2 or 4 goroutines walked the shards — although there the
// shards past the panic ran to completion — and RunContained poisons the
// engine in every case. Ben-Or at 192:24 under full delivery decides
// everywhere in one window; the panic sits in that window, at the middle
// receiver of a three-receiver shard, so decisions precede it in earlier
// shards and in its own, and follow it in its own and in later ones.
func TestMergePanicContract(t *testing.T) {
	const n, tt, target = 192, 24, 61
	p := Params{N: n, T: tt, Seed: 1, Inputs: SplitInputs(n)}
	clean, err := RunPooledTrial("benor", "full", "adversary", p, 200)
	if err != nil || !clean.AllDecided || clean.FirstDecision < 1 {
		t.Fatalf("reference run: %+v, %v; want a decision after window 0", clean, err)
	}
	alg := *algorithms.byName["benor"]
	alg.Name = "test-panicky"
	alg.Factory = func(p Params) (func(sim.ProcID, sim.Bit) sim.Process, error) {
		inner, err := algorithms.byName["benor"].Factory(p)
		if err != nil {
			return nil, err
		}
		return func(id sim.ProcID, in sim.Bit) sim.Process {
			w := &panicky{Process: inner(id, in), window: clean.FirstDecision, boomAt: -1}
			if id == target {
				w.boomAt = n / 2
			}
			return w
		}, nil
	}
	algorithms.mu.Lock()
	algorithms.byName[alg.Name] = &alg
	algorithms.mu.Unlock()
	t.Cleanup(func() {
		algorithms.mu.Lock()
		delete(algorithms.byName, alg.Name)
		algorithms.mu.Unlock()
	})

	type observed struct {
		panicVal any
		steps    int64
		first    int
		decided  []int // decision window per processor, -1 = undecided
		events   []string
	}
	observe := func(p Params, columnar bool) (o observed) {
		e, err := AcquireTrial(alg.Name, "full", "adversary", p)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Poison()
		e.sys.SetColumnar(columnar)
		if !columnar {
			e.sys.OnEvent = func(ev sim.Event) {
				o.events = append(o.events, fmt.Sprintf("%d w%d p%d %d>%d#%d v%d",
					ev.Kind, ev.Window, ev.Proc, ev.Msg.From, ev.Msg.To, ev.Msg.ID, ev.Value))
			}
		}
		if e.sys.ColumnarPlanned(e.plan) != columnar {
			t.Fatalf("columnar path planned = %v, want %v", !columnar, columnar)
		}
		func() {
			defer func() { o.panicVal = recover() }()
			_, err := e.Run(200)
			t.Fatalf("run returned (%v) instead of panicking", err)
		}()
		e.sys.OnEvent = nil
		o.steps, o.first = e.sys.Steps(), e.sys.FirstDecisionWindow()
		for i := 0; i < n; i++ {
			w, ok := e.sys.DecisionWindow(sim.ProcID(i))
			if !ok {
				w = -1
			}
			o.decided = append(o.decided, w)
		}
		return o
	}

	for _, columnar := range []bool{false, true} {
		var ref observed
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("columnar=%v/workers=%d", columnar, workers)
			p := p
			p.ShardWorkers = workers
			got := observe(p, columnar)
			if workers == 1 {
				ref = got
				if got.panicVal != fmt.Sprintf("boom at processor %d", target) {
					t.Fatalf("%s: panic value %v", name, got.panicVal)
				}
				if got.first != clean.FirstDecision || got.decided[target-1] != got.first ||
					got.decided[target+1] != -1 || got.decided[n-1] != -1 {
					t.Fatalf("%s: vacuous: first decision %d (clean run %d), decisions around the panic %v, last %d",
						name, got.first, clean.FirstDecision, got.decided[target-1:target+2], got.decided[n-1])
				}
				if !columnar && len(got.events) == 0 {
					t.Fatalf("%s: no events before the panic", name)
				}
			}
			if got.panicVal != ref.panicVal || got.steps != ref.steps || got.first != ref.first {
				t.Fatalf("%s: panic %v, steps %d, first decision %d; inline walk had %v, %d, %d",
					name, got.panicVal, got.steps, got.first, ref.panicVal, ref.steps, ref.first)
			}
			if !slices.Equal(got.decided, ref.decided) {
				t.Fatalf("%s: decision windows diverged:\ninline  %v\nsharded %v", name, ref.decided, got.decided)
			}
			if !slices.Equal(got.events, ref.events) {
				t.Fatalf("%s: %d events before the panic, the inline walk emitted %d (or they differ)",
					name, len(got.events), len(ref.events))
			}

			before := EngineStatsSnapshot()
			out := RunContained(alg.Name, "full", "adversary", "split", p, 200, nil, nil)
			after := EngineStatsSnapshot()
			if out.Kind != FaultPanic || firstLine(out.Fault) != fmt.Sprintf("panic: boom at processor %d", target) {
				t.Fatalf("%s: contained as %q (%q)", name, out.Kind, firstLine(out.Fault))
			}
			if after.Poisoned-before.Poisoned != 1 || after.Released != before.Released {
				t.Fatalf("%s: ledger moved by %d poisoned, %d released; want 1, 0",
					name, after.Poisoned-before.Poisoned, after.Released-before.Released)
			}
		}
	}
}
