package benor

import (
	"testing"
	"testing/quick"

	"asyncagree/internal/adversary"
	"asyncagree/internal/sim"
)

func newSystem(t *testing.T, n, tt int, inputs []sim.Bit, seed uint64) *sim.System {
	t.Helper()
	s, err := sim.New(sim.Config{
		N: n, T: tt, Seed: seed, Inputs: inputs,
		NewProcess: NewFactory(n, tt),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func unanimous(n int, v sim.Bit) []sim.Bit {
	in := make([]sim.Bit, n)
	for i := range in {
		in[i] = v
	}
	return in
}

func split(n int) []sim.Bit {
	in := make([]sim.Bit, n)
	for i := range in {
		in[i] = sim.Bit(i % 2)
	}
	return in
}

func classifyReport(m sim.Message) adversary.VoteInfo {
	if _, _, v, ok := ExtractVote(m); ok {
		return adversary.VoteInfo{HasValue: true, Value: v}
	}
	return adversary.VoteInfo{}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		n, t    int
		wantErr bool
	}{
		{4, 1, false},
		{5, 2, false},
		{4, 2, true},  // 2t >= n
		{4, -1, true}, // negative
		{1, 0, false},
	}
	for _, c := range cases {
		_, err := New(0, c.n, c.t, 0)
		if (err != nil) != c.wantErr {
			t.Errorf("New(n=%d, t=%d) err = %v, wantErr %v", c.n, c.t, err, c.wantErr)
		}
	}
}

func TestUnanimousDecidesRoundOne(t *testing.T) {
	for _, v := range []sim.Bit{0, 1} {
		s := newSystem(t, 9, 2, unanimous(9, v), 4)
		res, err := s.RunWindows(adversary.FullDelivery{}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided || res.Decision != v || !res.Agreement || !res.Validity {
			t.Fatalf("v=%d: %+v", v, res)
		}
		// Round 1 = two windows (report + proposal).
		if res.FirstDecision > 1 {
			t.Fatalf("first decision in window %d, want <= 1", res.FirstDecision)
		}
	}
}

func TestSplitTerminatesUnderFairness(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		s := newSystem(t, 9, 2, split(9), seed)
		res, err := s.RunWindows(adversary.FullDelivery{}, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided || !res.Agreement || !res.Validity {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestAgreementUnderCrashesProperty(t *testing.T) {
	// Crash up to t processors at adversarial times; agreement and validity
	// must always hold.
	check := func(seed uint64, pattern uint8, crashWin uint8, victim uint8) bool {
		const n, tt = 9, 2
		inputs := make([]sim.Bit, n)
		for i := range inputs {
			inputs[i] = sim.Bit((pattern >> (i % 8)) & 1)
		}
		s, err := sim.New(sim.Config{
			N: n, T: tt, Seed: seed, Inputs: inputs, NewProcess: NewFactory(n, tt),
		})
		if err != nil {
			return false
		}
		v1 := sim.ProcID(int(victim) % n)
		v2 := sim.ProcID(int(victim/9) % n)
		crashes := map[int][]sim.ProcID{int(crashWin) % 6: {v1}}
		if v2 != v1 {
			crashes[int(crashWin)%6+2] = []sim.ProcID{v2}
		}
		adv := &adversary.CrashSchedule{Inner: adversary.FullDelivery{}, CrashAt: crashes}
		res, err := s.RunWindows(adv, 4000)
		if err != nil {
			return false
		}
		return res.Agreement && res.Validity && res.AllDecided
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestStepModeLockstep(t *testing.T) {
	// Ben-Or must also run under the raw step scheduler (the classical
	// asynchronous crash model, not windows).
	s := newSystem(t, 5, 1, unanimous(5, 1), 2)
	res, err := s.RunSteps(adversary.NewLockstep(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided || res.Decision != 1 || !res.Agreement || !res.Validity {
		t.Fatalf("%+v", res)
	}
}

func TestMessageChainGrowsWithRounds(t *testing.T) {
	// Fully communicative: every phase builds one more link of the message
	// chain, so chain depth ~ 2 windows per round.
	s := newSystem(t, 9, 2, split(9), 3)
	res, err := s.RunWindows(adversary.FullDelivery{}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxChainDepth < res.Windows {
		t.Fatalf("chain depth %d < windows %d: chains not linking", res.MaxChainDepth, res.Windows)
	}
}

func TestSplitVoteAdversaryStallsBenOr(t *testing.T) {
	// Theorem 17's mechanism: keep every report count at or below n/2 so no
	// processor ever forms a valued proposal, forcing fresh coin flips each
	// round. Deterministic given seeds; assert on the mean.
	const n, tt, trials = 13, 3, 10
	total := 0
	for seed := uint64(1); seed <= trials; seed++ {
		s := newSystem(t, n, tt, split(n), seed)
		adv := &adversary.SplitVote{Classify: classifyReport, Cap: n / 2}
		res, err := s.RunWindows(adv, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("seed %d: safety violated: %+v", seed, res)
		}
		if res.FirstDecision < 0 {
			t.Fatalf("seed %d: no decision in 100000 windows", seed)
		}
		total += res.FirstDecision
	}
	if mean := total / trials; mean < 10 {
		t.Fatalf("mean stall %d windows, want >= 10", mean)
	}
}

func TestProposalConflictImpossibleUnderHonesty(t *testing.T) {
	// Observe all proposals: per round at most one value may be proposed.
	s := newSystem(t, 9, 2, split(9), 8)
	valued := map[int]map[sim.Bit]bool{}
	observed := 0
	s.OnEvent = func(ev sim.Event) {
		if ev.Kind != sim.EvSend {
			return
		}
		// The protocol sends pooled *Msg boxes; read them at emit time,
		// while the box is still live.
		msg, ok := ev.Msg.Payload.(*Msg)
		if !ok {
			return
		}
		observed++
		if msg.P == PhaseProposal && msg.Valued {
			if valued[msg.R] == nil {
				valued[msg.R] = map[sim.Bit]bool{}
			}
			valued[msg.R][msg.V] = true
		}
	}
	if _, err := s.RunWindows(adversary.NewRandomWindows(5, 0, 0), 2000); err != nil {
		t.Fatal(err)
	}
	if observed == 0 || len(valued) == 0 {
		t.Fatal("observed no proposal traffic; payload decoding is broken")
	}
	for r, vals := range valued {
		if vals[0] && vals[1] {
			t.Fatalf("round %d: both 0 and 1 proposed", r)
		}
	}
}

func TestExtractVote(t *testing.T) {
	r, ph, v, ok := ExtractVote(sim.Message{Payload: &Msg{R: 4, P: PhaseReport, V: 1, Valued: true}})
	if !ok || r != 4 || ph != PhaseReport || v != 1 {
		t.Fatalf("got (%d,%v,%d,%v)", r, ph, v, ok)
	}
	if _, _, _, ok := ExtractVote(sim.Message{Payload: &Msg{R: 4, P: PhaseProposal, Valued: false}}); ok {
		t.Fatal("'?' proposal classified as valued")
	}
	if _, _, _, ok := ExtractVote(sim.Message{Payload: 42}); ok {
		t.Fatal("foreign payload classified as vote")
	}
}

func TestSnapshot(t *testing.T) {
	p, err := New(0, 9, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Snapshot(), "r=1 p=1 x=1 out=_"; got != want {
		t.Fatalf("Snapshot = %q, want %q", got, want)
	}
}

func TestResetRestartsProtocol(t *testing.T) {
	p, err := New(0, 9, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Send() // drain initial broadcast
	p.Reset()
	msgs := p.Send()
	if len(msgs) != 1 || msgs[0].To != sim.All {
		t.Fatalf("after reset, sent %v, want one broadcast To sim.All", msgs)
	}
	if r, ph := p.Round(); r != 1 || ph != PhaseReport {
		t.Fatalf("after reset round=%d phase=%d", r, ph)
	}
}

// fakeRand is a deterministic RandSource for unit tests.
type fakeRand struct{}

func (fakeRand) Bit() uint8     { return 0 }
func (fakeRand) Intn(n int) int { return 0 }
func (fakeRand) Uint64() uint64 { return 0 }

// TestIgnoresForeignAndStaleMessages is core's test of the same name on
// Ben-Or's two waits: every row is delivered while the wait lacks exactly one
// sender — the row's own — so a row that were tallied would complete it.
func TestIgnoresForeignAndStaleMessages(t *testing.T) {
	const n, tt = 9, 2 // waits for n-t = 7 senders
	p, err := New(0, n, tt, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := fakeRand{}
	valued := func(round int, ph Phase, v sim.Bit) *Msg { return &Msg{R: round, P: ph, V: v, Valued: true} }
	type rows = []struct {
		name string
		from sim.ProcID
		pl   any
	}
	ignored := func(stage string, rows rows) {
		t.Helper()
		round, phase := p.Round()
		for _, row := range rows {
			p.Deliver(sim.Message{From: row.from, Payload: row.pl}, r)
			if rd, ph := p.Round(); rd != round || ph != phase {
				t.Fatalf("%s: %s moved the wait to (%d, %d)", stage, row.name, rd, ph)
			}
		}
	}

	// Phase 1: six reports (four 1s, two 0s), sender 6 still missing.
	for q := 0; q < 6; q++ {
		v := sim.One
		if q >= 4 {
			v = sim.Zero
		}
		p.Deliver(sim.Message{From: sim.ProcID(q), Payload: valued(1, PhaseReport, v)}, r)
	}
	ignored("report wait", rows{
		{"a foreign payload", 6, "garbage"},
		{"a plain value, not the box the protocol sends", 6, *valued(1, PhaseReport, 1)},
		{"a stale round", 6, valued(0, PhaseReport, 1)},
		{"an unknown phase", 6, valued(1, 0, 1)},
		{"an unknown phase", 6, valued(1, 3, 1)},
		{"an out-of-range sender", -1, valued(1, PhaseReport, 1)},
		{"an out-of-range sender", n, valued(1, PhaseReport, 1)},
		{"an out-of-range value", 6, valued(1, PhaseReport, 2)},
		{"an out-of-range value", 6, &Msg{R: 1, P: PhaseReport, V: 255, Valued: true}},
		{"a duplicate", 0, valued(1, PhaseReport, 1)},
	})
	// The documented quirk: an unvalued report still tallies its V, here the
	// fifth 1 of nine — the strict majority that makes the proposal valued.
	p.Deliver(sim.Message{From: 6, Payload: &Msg{R: 1, P: PhaseReport, V: 1}}, r)
	if rd, ph := p.Round(); rd != 1 || ph != PhaseProposal {
		t.Fatalf("after the seventh report the wait is (%d, %d), want (1, %d)", rd, ph, PhaseProposal)
	}
	sent := p.Send()
	if _, ph, v, ok := ExtractVote(sent[len(sent)-1]); !ok || ph != PhaseProposal || v != 1 {
		t.Fatalf("proposal = (phase %d, value %d, valued %v), want a valued 1", ph, v, ok)
	}

	// Phase 2: six valued proposals, sender 6 still missing.
	for q := 0; q < 6; q++ {
		p.Deliver(sim.Message{From: sim.ProcID(q), Payload: valued(1, PhaseProposal, 1)}, r)
	}
	ignored("proposal wait", rows{
		{"a stale phase", 6, valued(1, PhaseReport, 1)},
		{"a stale round", 6, valued(0, PhaseProposal, 1)},
		{"an unknown phase", 6, valued(1, 3, 1)},
		{"an out-of-range sender", n, valued(1, PhaseProposal, 1)},
		{"an out-of-range value", 6, valued(1, PhaseProposal, 2)},
		{"an out-of-range value in a buffered round", 6, valued(2, PhaseReport, 2)},
	})
	p.Deliver(sim.Message{From: 6, Payload: &Msg{R: 1, P: PhaseProposal, V: 7}}, r) // '?': V is not read
	if rd, ph := p.Round(); rd != 2 || ph != PhaseReport {
		t.Fatalf("after the seventh proposal the wait is (%d, %d), want (2, %d)", rd, ph, PhaseReport)
	}
	if v, ok := p.Output(); !ok || v != 1 {
		t.Fatalf("output = (%d, %v), want (1, true): six valued proposals decide", v, ok)
	}
	// The buffered round-2 report of sender 6 was dropped, not tallied.
	for q := 0; q < 6; q++ {
		p.Deliver(sim.Message{From: sim.ProcID(q), Payload: valued(2, PhaseReport, 1)}, r)
	}
	if rd, ph := p.Round(); rd != 2 || ph != PhaseReport {
		t.Fatalf("six round-2 reports moved the wait to (%d, %d)", rd, ph)
	}
}
