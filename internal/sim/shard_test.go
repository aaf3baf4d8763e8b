package sim

import (
	"fmt"
	"testing"
)

// scriptedSenders is a WindowAdversary replaying a fixed per-window script
// of sender sets (nil entry = all senders for that window).
type scriptedSenders struct {
	script [][][]ProcID
	next   int
}

func (a *scriptedSenders) PlanDelivery(s *System, batch []Message) Window {
	if a.next >= len(a.script) {
		return Window{}
	}
	w := Window{Senders: a.script[a.next]}
	a.next++
	return w
}

// captureEvents installs an observer rendering each event canonically.
func captureEvents(s *System) *[]string {
	events := &[]string{}
	s.OnEvent = func(ev Event) {
		*events = append(*events, fmt.Sprintf("%d w%d p%d %d>%d#%d %v v%d",
			ev.Kind, ev.Window, ev.Proc, ev.Msg.From, ev.Msg.To, ev.Msg.ID, ev.Msg.Payload, ev.Value))
	}
	return events
}

// allBut returns every processor ID except the listed ones — a maximal
// explicit sender set, distinct from the nil "all senders" row.
func allBut(n int, drop ...ProcID) []ProcID {
	out := make([]ProcID, 0, n)
	for i := 0; i < n; i++ {
		skip := false
		for _, d := range drop {
			if ProcID(i) == d {
				skip = true
			}
		}
		if !skip {
			out = append(out, ProcID(i))
		}
	}
	return out
}

// TestShardedDeliverBoundarySenderSets drives the sharded window core over
// sender-set shapes chosen to straddle shard boundaries — for n > 64 the
// shards are uneven (mixed ceil/floor sizes), so receivers at the exact
// partition edges exercise the lo/hi arithmetic — and asserts every trace
// event, result, and snapshot matches the serial facade byte for byte.
// Explicit all-senders rows and nil rows must behave identically.
func TestShardedDeliverBoundarySenderSets(t *testing.T) {
	for _, n := range []int{3, 8, 64, 70, 96} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tt := n / 8
			if tt == 0 {
				tt = 1
			}
			c := shardCountFor(n)
			// Collect the shard edge receivers: first and last of each shard.
			var edges []ProcID
			for b := 0; b < c; b++ {
				lo, hi := b*n/c, (b+1)*n/c
				if lo < hi {
					edges = append(edges, ProcID(lo), ProcID(hi-1))
				}
			}
			// Window scripts: each entry is one window's sender sets.
			script := [][][]ProcID{
				nil, // all-nil window
			}
			// Explicit all-senders row for every edge receiver, nil elsewhere.
			w := make([][]ProcID, n)
			for _, e := range edges {
				w[e] = allBut(n)
			}
			script = append(script, w)
			// Minimal sets (n-tt distinct senders) exactly at the edges,
			// dropping the receiver's own shard neighbors where possible.
			w2 := make([][]ProcID, n)
			for i, e := range edges {
				drop := make([]ProcID, 0, tt)
				for d := 0; d < tt; d++ {
					drop = append(drop, ProcID((int(e)+i+d)%n))
				}
				w2[e] = allBut(n, drop...)
			}
			script = append(script, w2)
			// Duplicate-padded set at the first edge (duplicates must not
			// smuggle the distinct count below n-t, nor double-deliver).
			w3 := make([][]ProcID, n)
			set := allBut(n, ProcID(n-1))
			set = append(set, set[0], set[1], set[0])
			w3[0] = set
			script = append(script, w3)

			run := func(workers int) ([]string, RunResult, []string, error) {
				s, err := New(Config{
					N: n, T: tt, Seed: 42,
					Inputs:     mkInputs(n, "split"),
					NewProcess: newEcho(n, 3),
				})
				if err != nil {
					t.Fatal(err)
				}
				s.SetShardWorkers(workers)
				s.SetParallelSend(workers > 1)
				events := captureEvents(s)
				res, err := s.RunWindows(&scriptedSenders{script: script}, len(script)+2)
				s.OnEvent = nil
				return *events, res, s.ConfigurationSnapshot(), err
			}

			sEvents, sRes, sSnap, sErr := run(1)
			for _, workers := range []int{2, 4, 7} {
				events, res, snap, err := run(workers)
				if (sErr == nil) != (err == nil) || (sErr != nil && sErr.Error() != err.Error()) {
					t.Fatalf("w=%d: errors diverged: serial %v, sharded %v", workers, sErr, err)
				}
				if res != sRes {
					t.Fatalf("w=%d: results diverged:\nserial  %+v\nsharded %+v", workers, sRes, res)
				}
				if len(events) != len(sEvents) {
					t.Fatalf("w=%d: event counts diverged: serial %d, sharded %d", workers, len(sEvents), len(events))
				}
				for i := range sEvents {
					if events[i] != sEvents[i] {
						t.Fatalf("w=%d: event %d diverged:\nserial  %s\nsharded %s", workers, i, sEvents[i], events[i])
					}
				}
				for i := range sSnap {
					if snap[i] != sSnap[i] {
						t.Fatalf("w=%d: processor %d diverged:\nserial  %q\nsharded %q", workers, i, sSnap[i], snap[i])
					}
				}
			}
		})
	}
}

// TestShardedDeliverValidationErrors asserts that illegal windows fail
// identically on both paths — same error text, and (like the serial
// contract) no delivery happens before the error is raised.
func TestShardedDeliverValidationErrors(t *testing.T) {
	const n, tt = 70, 8
	cases := []struct {
		name string
		mut  func(w [][]ProcID)
	}{
		{"undersized first shard", func(w [][]ProcID) { w[0] = allBut(n)[:n-tt-1] }},
		{"undersized last shard", func(w [][]ProcID) { w[n-1] = allBut(n)[:n-tt-1] }},
		{"undersized mid shard", func(w [][]ProcID) { w[n/2] = allBut(n)[:1] }},
		{"out of range sender", func(w [][]ProcID) { w[n/3] = append(allBut(n), ProcID(n+5)) }},
		{"negative sender", func(w [][]ProcID) { w[2*n/3] = append(allBut(n), ProcID(-1)) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) (string, int64, string) {
				s, err := New(Config{
					N: n, T: tt, Seed: 7,
					Inputs:     mkInputs(n, "split"),
					NewProcess: newEcho(n, 0),
				})
				if err != nil {
					t.Fatal(err)
				}
				s.SetShardWorkers(workers)
				s.SetParallelSend(workers > 1)
				batch := s.WindowSend()
				w := make([][]ProcID, n)
				tc.mut(w)
				dErr := s.WindowDeliver(batch, w)
				if dErr == nil {
					t.Fatal("illegal window accepted")
				}
				return dErr.Error(), s.Steps(), s.ConfigurationSnapshot()[0]
			}
			sMsg, sSteps, sSnap := run(1)
			for _, workers := range []int{2, 4} {
				msg, steps, snap := run(workers)
				if msg != sMsg {
					t.Fatalf("w=%d: error diverged:\nserial  %s\nsharded %s", workers, sMsg, msg)
				}
				if steps != sSteps || snap != sSnap {
					t.Fatalf("w=%d: state after rejected window diverged (steps %d vs %d, snap %q vs %q)",
						workers, sSteps, steps, sSnap, snap)
				}
			}
		})
	}
}

// TestShardedHandBuiltBatchFallsBack pins the facade gate: a batch that is
// not the System's own just-sent scratch (here, a copy) must take the serial
// path and behave exactly as before — the sharded ordering shortcut assumes
// invariants only WindowSend-produced batches carry.
func TestShardedHandBuiltBatchFallsBack(t *testing.T) {
	const n, tt = 8, 1
	s, err := New(Config{
		N: n, T: tt, Seed: 3,
		Inputs:     mkInputs(n, "ones"),
		NewProcess: newEcho(n, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetShardWorkers(4)
	batch := s.WindowSend()
	copied := append([]Message(nil), batch...)
	if err := s.WindowDeliver(copied, nil); err != nil {
		t.Fatal(err)
	}
	if s.Buffer().Len() != 0 {
		t.Fatalf("buffer holds %d messages after window, want 0", s.Buffer().Len())
	}
	for i := 0; i < n; i++ {
		got := s.Proc(ProcID(i)).(*echoProc).delivered
		if len(got) != n {
			t.Fatalf("processor %d got %d deliveries, want %d", i, len(got), n)
		}
	}
}

// TestBufferDrainAll pins DrainAll's contract: the buffer empties in one
// sweep, the ID sequence keeps counting (unlike Reset), and old IDs are
// gone while new Adds land past the drained span.
func TestBufferDrainAll(t *testing.T) {
	b := NewBuffer()
	var ids []int64
	for i := 0; i < 10; i++ {
		m := b.Add(Message{From: ProcID(i % 4), To: ProcID((i + 1) % 4)})
		ids = append(ids, m.ID)
	}
	if _, ok := b.Take(ids[3]); !ok {
		t.Fatal("take failed")
	}
	b.DrainAll()
	if b.Len() != 0 {
		t.Fatalf("Len = %d after DrainAll, want 0", b.Len())
	}
	for _, id := range ids {
		if _, ok := b.Get(id); ok {
			t.Fatalf("message %d survived DrainAll", id)
		}
	}
	m := b.Add(Message{From: 0, To: 1})
	if m.ID != ids[len(ids)-1]+1 {
		t.Fatalf("post-drain ID = %d, want monotone %d", m.ID, ids[len(ids)-1]+1)
	}
	ids = b.IDs()
	if got, ok := b.Get(m.ID); !ok || got != m || len(ids) != 1 || ids[0] != m.ID {
		t.Fatalf("buffer broken after DrainAll: Get = %v, %v; IDs %v", got, ok, ids)
	}
}
