package adversary

import (
	"fmt"
	"testing"
	"testing/quick"

	"asyncagree/internal/sim"
)

// voteProc broadcasts a fixed bit each window and never decides; it lets the
// tests observe adversary delivery patterns precisely.
type voteProc struct {
	id    sim.ProcID
	n     int
	input sim.Bit
	dirty bool
	got   []sim.Message
}

type votePayload struct{ V sim.Bit }

func newVoteFactory(n int) func(sim.ProcID, sim.Bit) sim.Process {
	return func(id sim.ProcID, input sim.Bit) sim.Process {
		return &voteProc{id: id, n: n, input: input, dirty: true}
	}
}

func (p *voteProc) ID() sim.ProcID          { return p.id }
func (p *voteProc) Input() sim.Bit          { return p.input }
func (p *voteProc) Output() (sim.Bit, bool) { return 0, false }
func (p *voteProc) Reset()                  { p.got = nil; p.dirty = false }
func (p *voteProc) Snapshot() string        { return fmt.Sprintf("got=%d", len(p.got)) }
func (p *voteProc) Deliver(m sim.Message, _ sim.RandSource) {
	p.got = append(p.got, m)
	p.dirty = true
}

func (p *voteProc) Send() []sim.Message {
	if !p.dirty {
		return nil
	}
	p.dirty = false
	out := make([]sim.Message, 0, p.n)
	for q := 0; q < p.n; q++ {
		out = append(out, sim.Message{To: sim.ProcID(q), Payload: votePayload{V: p.input}})
	}
	return out
}

func classify(m sim.Message) VoteInfo {
	if v, ok := m.Payload.(votePayload); ok {
		return VoteInfo{HasValue: true, Value: v.V}
	}
	return VoteInfo{}
}

func newVoteSystem(t *testing.T, n, tt int, ones int) *sim.System {
	t.Helper()
	inputs := make([]sim.Bit, n)
	for i := 0; i < ones; i++ {
		inputs[i] = 1
	}
	s, err := sim.New(sim.Config{
		N: n, T: tt, Seed: 1, Inputs: inputs, NewProcess: newVoteFactory(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFullDeliveryDeliversEverything(t *testing.T) {
	s := newVoteSystem(t, 5, 1, 2)
	if err := s.ApplyWindowWith(FullDelivery{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if got := len(s.Proc(sim.ProcID(i)).(*voteProc).got); got != 5 {
			t.Fatalf("processor %d got %d messages, want 5", i, got)
		}
	}
}

func TestFixedSilence(t *testing.T) {
	s := newVoteSystem(t, 5, 2, 2)
	adv := FixedSilence{Silent: []sim.ProcID{0, 3}}
	if err := s.ApplyWindowWith(adv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for _, m := range s.Proc(sim.ProcID(i)).(*voteProc).got {
			if m.From == 0 || m.From == 3 {
				t.Fatalf("silenced sender %d delivered to %d", m.From, i)
			}
		}
		if got := len(s.Proc(sim.ProcID(i)).(*voteProc).got); got != 3 {
			t.Fatalf("processor %d got %d messages, want 3", i, got)
		}
	}
}

func TestRandomWindowsLegality(t *testing.T) {
	// Property: RandomWindows always produces windows the System accepts.
	check := func(seed uint64) bool {
		s := newVoteSystem(t, 9, 2, 4)
		adv := NewRandomWindows(seed, 0.7, 2)
		for w := 0; w < 20; w++ {
			if err := s.ApplyWindowWith(adv); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResetStormRotates(t *testing.T) {
	s := newVoteSystem(t, 6, 2, 3)
	adv := &ResetStorm{}
	for w := 0; w < 3; w++ {
		if err := s.ApplyWindowWith(adv); err != nil {
			t.Fatal(err)
		}
	}
	// 3 windows x 2 resets = 6 resets, rotating: every processor reset once.
	for i := 0; i < 6; i++ {
		if s.ResetCount(sim.ProcID(i)) != 1 {
			t.Fatalf("processor %d reset %d times, want exactly 1", i, s.ResetCount(sim.ProcID(i)))
		}
	}
}

func TestSplitVoteCapsCounts(t *testing.T) {
	// 7 ones and 5 zeros among 12 senders, cap 5, t = 2: the adversary must
	// exclude 2 one-senders so every receiver sees at most 5 of each value.
	s := newVoteSystem(t, 12, 2, 7)
	adv := &SplitVote{Classify: classify, Cap: 5}
	if err := s.ApplyWindowWith(adv); err != nil {
		t.Fatal(err)
	}
	if adv.GaveUp != 0 {
		t.Fatal("adversary gave up although exclusion fits the budget")
	}
	for i := 0; i < 12; i++ {
		var count [2]int
		for _, m := range s.Proc(sim.ProcID(i)).(*voteProc).got {
			count[m.Payload.(votePayload).V]++
		}
		if count[0] > 5 || count[1] > 5 {
			t.Fatalf("receiver %d saw counts %v, cap 5", i, count)
		}
		if count[0]+count[1] < 12-2 {
			t.Fatalf("receiver %d saw only %d messages, want >= n-t = 10", i, count[0]+count[1])
		}
	}
}

func TestSplitVoteGivesUpWhenInfeasible(t *testing.T) {
	// 11 ones, 1 zero, cap 5, t = 2: would need to exclude 6 > t senders.
	s := newVoteSystem(t, 12, 2, 11)
	adv := &SplitVote{Classify: classify, Cap: 5}
	if err := s.ApplyWindowWith(adv); err != nil {
		t.Fatal(err)
	}
	if adv.GaveUp != 1 {
		t.Fatalf("GaveUp = %d, want 1", adv.GaveUp)
	}
	// Full delivery on giving up.
	for i := 0; i < 12; i++ {
		if got := len(s.Proc(sim.ProcID(i)).(*voteProc).got); got != 12 {
			t.Fatalf("receiver %d got %d messages, want all 12", i, got)
		}
	}
}

func TestSplitVoteNeutralMessagesAlwaysDelivered(t *testing.T) {
	// Messages the classifier marks neutral never cause exclusion.
	s := newVoteSystem(t, 6, 1, 3)
	adv := &SplitVote{
		Classify: func(sim.Message) VoteInfo { return VoteInfo{} }, // all neutral
		Cap:      0,
	}
	if err := s.ApplyWindowWith(adv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if got := len(s.Proc(sim.ProcID(i)).(*voteProc).got); got != 6 {
			t.Fatalf("receiver %d got %d neutral messages, want 6", i, got)
		}
	}
}

func TestCrashSchedule(t *testing.T) {
	s := newVoteSystem(t, 6, 2, 3)
	adv := &CrashSchedule{
		Inner:   FullDelivery{},
		CrashAt: map[int][]sim.ProcID{1: {2}, 2: {4}},
	}
	for w := 0; w < 3; w++ {
		if err := s.ApplyWindowWith(adv); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Crashed(2) || !s.Crashed(4) {
		t.Fatal("scheduled crashes did not happen")
	}
	if s.Crashed(0) {
		t.Fatal("unscheduled crash")
	}
}

func TestLockstepDeliversEverything(t *testing.T) {
	s := newVoteSystem(t, 4, 1, 2)
	res, err := s.RunSteps(NewLockstep(), 200)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// After enough steps every processor has received at least the first
	// broadcast from every other processor.
	for i := 0; i < 4; i++ {
		senders := map[sim.ProcID]bool{}
		for _, m := range s.Proc(sim.ProcID(i)).(*voteProc).got {
			senders[m.From] = true
		}
		if len(senders) != 4 {
			t.Fatalf("processor %d heard from %d senders, want 4", i, len(senders))
		}
	}
}

func TestStarveOneWithholdsVictim(t *testing.T) {
	s := newVoteSystem(t, 4, 1, 2)
	if _, err := s.RunSteps(NewStarveOne(1), 200); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for _, m := range s.Proc(sim.ProcID(i)).(*voteProc).got {
			if m.From == 1 {
				t.Fatalf("starved sender 1 delivered to %d", i)
			}
		}
	}
}
