package core

import (
	"testing"
	"testing/quick"

	"asyncagree/internal/adversary"
	"asyncagree/internal/sim"
)

func mustThresholds(t *testing.T, n, tt int) Thresholds {
	t.Helper()
	th, err := DefaultThresholds(n, tt)
	if err != nil {
		t.Fatalf("DefaultThresholds(%d, %d): %v", n, tt, err)
	}
	return th
}

func newSystem(t *testing.T, n, tt int, inputs []sim.Bit, seed uint64) *sim.System {
	t.Helper()
	th := mustThresholds(t, n, tt)
	s, err := sim.New(sim.Config{
		N: n, T: tt, Seed: seed, Inputs: inputs,
		NewProcess: NewFactory(n, tt, th),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func splitInputs(n int) []sim.Bit {
	in := make([]sim.Bit, n)
	for i := range in {
		in[i] = sim.Bit(i % 2)
	}
	return in
}

func unanimousInputs(n int, v sim.Bit) []sim.Bit {
	in := make([]sim.Bit, n)
	for i := range in {
		in[i] = v
	}
	return in
}

func classifyVote(m sim.Message) adversary.VoteInfo {
	if _, v, ok := ExtractVote(m); ok {
		return adversary.VoteInfo{HasValue: true, Value: v}
	}
	return adversary.VoteInfo{}
}

func TestThresholdValidation(t *testing.T) {
	cases := []struct {
		name    string
		n, t    int
		th      Thresholds
		wantErr bool
	}{
		{"theorem 4 defaults n=12 t=1", 12, 1, Thresholds{T1: 10, T2: 10, T3: 9}, false},
		{"T1 too large", 12, 1, Thresholds{T1: 11, T2: 10, T3: 9}, true},
		{"T2 above T1", 12, 1, Thresholds{T1: 10, T2: 11, T3: 9}, true},
		{"T2 below T3+t", 12, 1, Thresholds{T1: 10, T2: 9, T3: 9}, true},
		{"2*T3 <= n", 12, 1, Thresholds{T1: 10, T2: 10, T3: 6}, true},
		{"negative t", 12, -1, Thresholds{T1: 10, T2: 10, T3: 9}, true},
		{"t = n", 12, 12, Thresholds{T1: 10, T2: 10, T3: 9}, true},
		{"smaller T2 legal when t allows", 24, 2, Thresholds{T1: 20, T2: 19, T3: 17}, false},
		{"nonpositive T1", 3, 1, Thresholds{T1: 0, T2: 0, T3: -1}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.th.Validate(c.n, c.t)
			if (err != nil) != c.wantErr {
				t.Fatalf("Validate = %v, wantErr = %v", err, c.wantErr)
			}
		})
	}
}

func TestDefaultThresholdsFeasibleIffSmallT(t *testing.T) {
	// Theorem 4: achievable whenever t < n/6 (with the stated defaults
	// T1 = T2 = n-2t, T3 = n-3t).
	for n := 6; n <= 60; n += 6 {
		for tt := 0; tt < n; tt++ {
			got := Feasible(n, tt)
			want := 6*tt < n
			if got != want {
				t.Fatalf("Feasible(%d, %d) = %v, want %v", n, tt, got, want)
			}
		}
	}
}

func TestUnanimousDecidesInFirstWindow(t *testing.T) {
	// "if all inputs are equal to a common value v, then all processors
	// will decide v in the first acceptable window."
	for _, v := range []sim.Bit{0, 1} {
		s := newSystem(t, 12, 1, unanimousInputs(12, v), 7)
		res, err := s.RunWindows(adversary.FullDelivery{}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided {
			t.Fatal("not all decided")
		}
		if res.FirstDecision != 0 {
			t.Fatalf("first decision in window %d, want 0", res.FirstDecision)
		}
		if res.Decision != v {
			t.Fatalf("decision = %d, want %d", res.Decision, v)
		}
		if !res.Agreement || !res.Validity {
			t.Fatal("agreement/validity violated")
		}
	}
}

func TestUnanimousUnderAdversaries(t *testing.T) {
	advs := map[string]func() sim.WindowAdversary{
		"full":    func() sim.WindowAdversary { return adversary.FullDelivery{} },
		"random":  func() sim.WindowAdversary { return adversary.NewRandomWindows(3, 0.5, 2) },
		"storm":   func() sim.WindowAdversary { return &adversary.ResetStorm{} },
		"silence": func() sim.WindowAdversary { return adversary.FixedSilence{Silent: []sim.ProcID{0, 1}} },
	}
	for name, mk := range advs {
		t.Run(name, func(t *testing.T) {
			s := newSystem(t, 18, 2, unanimousInputs(18, 1), 11)
			res, err := s.RunWindows(mk(), 50)
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllDecided || !res.Agreement || !res.Validity || res.Decision != 1 {
				t.Fatalf("res = %+v", res)
			}
		})
	}
}

func TestSplitInputsTerminateUnderChaos(t *testing.T) {
	// Measure-one termination: under non-worst-case adversaries a split
	// input configuration still decides reasonably fast for small n.
	for seed := uint64(1); seed <= 5; seed++ {
		s := newSystem(t, 12, 1, splitInputs(12), seed)
		res, err := s.RunWindows(adversary.NewRandomWindows(seed, 0.3, 1), 5000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided {
			t.Fatalf("seed %d: not decided within 5000 windows", seed)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("seed %d: safety violated: %+v", seed, res)
		}
	}
}

func TestAgreementNeverViolatedProperty(t *testing.T) {
	// Property (Theorem 4 safety): across random seeds, adversary mixes and
	// input patterns, no reachable configuration ever contains conflicting
	// outputs or an invalid output.
	check := func(seed uint64, pattern uint8, advPick uint8) bool {
		const n, tt = 12, 1
		inputs := make([]sim.Bit, n)
		for i := range inputs {
			inputs[i] = sim.Bit((pattern >> (i % 8)) & 1)
		}
		th, err := DefaultThresholds(n, tt)
		if err != nil {
			return false
		}
		s, err := sim.New(sim.Config{
			N: n, T: tt, Seed: seed, Inputs: inputs,
			NewProcess: NewFactory(n, tt, th),
		})
		if err != nil {
			return false
		}
		var adv sim.WindowAdversary
		switch advPick % 4 {
		case 0:
			adv = adversary.FullDelivery{}
		case 1:
			adv = adversary.NewRandomWindows(seed, 0.5, tt)
		case 2:
			adv = &adversary.ResetStorm{}
		case 3:
			adv = &adversary.SplitVote{Classify: classifyVote, Cap: th.T3 - 1}
		}
		res, err := s.RunWindows(adv, 300)
		if err != nil {
			return false
		}
		return res.Agreement && res.Validity
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestResetRejoin(t *testing.T) {
	// A processor reset in window 0 must resynchronize and still decide.
	// Split inputs keep window 0 undecided (counts 6/6 are below T3=9), so
	// the reset processor genuinely has to rejoin the protocol.
	s := newSystem(t, 12, 1, splitInputs(12), 3)
	// Window 0: full delivery then reset processor 5.
	s.WindowSend()
	if err := s.WindowDeliver(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WindowResets([]sim.ProcID{5}); err != nil {
		t.Fatal(err)
	}
	p5 := s.Proc(5).(*Proc)
	if _, ok := p5.Round(); ok {
		t.Fatal("processor 5 should be resynchronizing after reset")
	}
	if p5.Resets() != 1 {
		t.Fatalf("reset counter = %d, want 1", p5.Resets())
	}
	// The reset processor must refrain from sending while syncing.
	if msgs := p5.Send(); len(msgs) != 0 {
		t.Fatalf("syncing processor sent %d messages", len(msgs))
	}
	// Next window: everyone else sends round-2 votes; p5 adopts the round
	// from the T1 common-round messages and re-enters at step 3.
	res, err := s.RunWindows(adversary.FullDelivery{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement || !res.Validity {
		t.Fatalf("after reset rejoin: %+v", res)
	}
	if r, ok := p5.Round(); !ok || r < 2 {
		t.Fatalf("processor 5 did not resynchronize: round=%d ok=%v", r, ok)
	}
}

func TestResetErasesMemoryButKeepsContract(t *testing.T) {
	th := mustThresholds(t, 12, 1)
	p, err := New(3, 12, 1, th, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Input() != 1 || p.ID() != 3 {
		t.Fatal("identity/input wrong")
	}
	p.Reset()
	if p.Input() != 1 || p.ID() != 3 {
		t.Fatal("reset erased input or identity")
	}
	if p.Resets() != 1 {
		t.Fatal("reset counter not incremented")
	}
	if _, ok := p.Output(); ok {
		t.Fatal("output appeared from nowhere")
	}
}

func TestDecidedOutputSurvivesReset(t *testing.T) {
	s := newSystem(t, 12, 1, unanimousInputs(12, 1), 9)
	s.WindowSend()
	if err := s.WindowDeliver(nil); err != nil {
		t.Fatal(err)
	}
	p0 := s.Proc(0).(*Proc)
	if _, ok := p0.Output(); !ok {
		t.Fatal("processor 0 should have decided in window 1 with unanimous inputs")
	}
	p0.Reset()
	v, ok := p0.Output()
	if !ok || v != 1 {
		t.Fatalf("output after reset = (%d, %v), want (1, true)", v, ok)
	}
}

func TestSplitVoteStallsProgress(t *testing.T) {
	// The Section 3 closing argument: the split-vote adversary prevents
	// decisions for a long time on split inputs by showing every processor
	// an approximate split. Individual seeds vary (the stall length is
	// roughly geometric), so assert on the mean over a fixed seed set; the
	// whole computation is deterministic.
	const n, tt, trials = 18, 2, 10
	th := mustThresholds(t, n, tt)
	total := 0
	for seed := uint64(1); seed <= trials; seed++ {
		s := newSystem(t, n, tt, splitInputs(n), seed)
		adv := &adversary.SplitVote{Classify: classifyVote, Cap: th.T3 - 1}
		res, err := s.RunWindows(adv, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("seed %d: safety violated: %+v", seed, res)
		}
		if res.FirstDecision < 0 {
			t.Fatalf("seed %d: no decision within 100000 windows", seed)
		}
		total += res.FirstDecision
	}
	if mean := total / trials; mean < 15 {
		t.Fatalf("mean stall = %d windows, want >= 15 (split-vote too weak)", mean)
	}
}

func TestSplitVoteEventuallyLoses(t *testing.T) {
	// Measure-one termination: even against split-vote the execution
	// decides in finite time (exponentially distributed; n=8, t=1 is small
	// enough to finish fast).
	th := mustThresholds(t, 8, 1)
	s := newSystem(t, 8, 1, splitInputs(8), 21)
	adv := &adversary.SplitVote{Classify: classifyVote, Cap: th.T3 - 1}
	res, err := s.RunWindows(adv, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided {
		t.Fatalf("did not terminate within 200000 windows (decided %d/8)", s.DecidedCount())
	}
	if !res.Agreement || !res.Validity {
		t.Fatalf("safety violated: %+v", res)
	}
}

func TestNoConflictingDeterministicAdoption(t *testing.T) {
	// Proof of measure-one termination: "no two processors p and q can fix
	// x_p and x_q deterministically to conflicting values" in one window,
	// because 2*T3 > n. Verify over adversarial executions by observing
	// values after each window: the set of processors that adopted
	// deterministically must be unanimous. We detect deterministic adoption
	// by replaying threshold counts per window via an event observer on
	// delivered votes.
	th := mustThresholds(t, 12, 1)
	s := newSystem(t, 12, 1, splitInputs(12), 13)
	counts := make(map[sim.ProcID]*[2]int)
	conflicts := 0
	s.OnEvent = func(ev sim.Event) {
		switch ev.Kind {
		case sim.EvDeliver:
			if _, v, ok := ExtractVote(ev.Msg); ok {
				c := counts[ev.Proc]
				if c == nil {
					c = new([2]int)
					counts[ev.Proc] = c
				}
				c[v]++
			}
		case sim.EvWindow:
			det := map[sim.Bit]bool{}
			for _, c := range counts {
				for v := 0; v < 2; v++ {
					if c[v] >= th.T3 {
						det[sim.Bit(v)] = true
					}
				}
			}
			if det[0] && det[1] {
				conflicts++
			}
			counts = make(map[sim.ProcID]*[2]int)
		}
	}
	adv := adversary.NewRandomWindows(99, 0.4, 1)
	if _, err := s.RunWindows(adv, 500); err != nil {
		t.Fatal(err)
	}
	if conflicts != 0 {
		t.Fatalf("found %d windows with conflicting deterministic adoptions", conflicts)
	}
}

func TestSnapshotCanonical(t *testing.T) {
	th := mustThresholds(t, 12, 1)
	p, err := New(0, 12, 1, th, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Snapshot(), "r=1 x=1 out=_ rc=0"; got != want {
		t.Fatalf("Snapshot = %q, want %q", got, want)
	}
	p.Reset()
	if got, want := p.Snapshot(), "r=sync x=1 out=_ rc=1"; got != want {
		t.Fatalf("Snapshot after reset = %q, want %q", got, want)
	}
	if got, want := p.ProjectedSnapshot(), "1_"; got != want {
		t.Fatalf("ProjectedSnapshot = %q, want %q", got, want)
	}
}

func TestIgnoresForeignAndStaleMessages(t *testing.T) {
	th := mustThresholds(t, 12, 1)
	p, err := New(0, 12, 1, th, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := fakeRand{}
	p.Deliver(sim.Message{From: 1, Payload: "garbage"}, r)
	p.Deliver(sim.Message{From: 1, Payload: Vote{R: 0, X: 1}}, r) // stale round
	if rd, ok := p.Round(); !ok || rd != 1 {
		t.Fatalf("round moved on garbage: %d %v", rd, ok)
	}
	// Duplicate votes from the same sender must count once.
	for i := 0; i < th.T1+3; i++ {
		p.Deliver(sim.Message{From: 1, Payload: Vote{R: 1, X: 1}}, r)
	}
	if rd, _ := p.Round(); rd != 1 {
		t.Fatalf("duplicates advanced the round to %d", rd)
	}
	// A corrupted value and senders that do not exist are ignored, not
	// tallied: T1-1 more honest votes are then exactly what round 1 lacks.
	for q := 2; q < th.T1; q++ {
		p.Deliver(sim.Message{From: sim.ProcID(q), Payload: Vote{R: 1, X: 1}}, r)
	}
	p.Deliver(sim.Message{From: 11, Payload: Vote{R: 1, X: 2}}, r)
	p.Deliver(sim.Message{From: 11, Payload: &Vote{R: 1, X: 255}}, r)
	p.Deliver(sim.Message{From: -1, Payload: Vote{R: 1, X: 1}}, r)
	p.Deliver(sim.Message{From: 12, Payload: Vote{R: 1, X: 1}}, r)
	if rd, _ := p.Round(); rd != 1 {
		t.Fatalf("corrupted votes advanced the round to %d", rd)
	}
	p.Deliver(sim.Message{From: 11, Payload: Vote{R: 1, X: 1}}, r)
	if rd, _ := p.Round(); rd != 2 {
		t.Fatalf("round = %d after the T1-th distinct vote, want 2", rd)
	}
}

// fakeRand is a deterministic RandSource for unit tests.
type fakeRand struct{}

func (fakeRand) Bit() uint8     { return 0 }
func (fakeRand) Intn(n int) int { return 0 }
func (fakeRand) Uint64() uint64 { return 0 }

func TestCascadedRoundCompletion(t *testing.T) {
	// Votes for round r+1 arriving before round r completes must be
	// buffered and applied immediately once round r evaluates.
	th := mustThresholds(t, 12, 1)
	p, err := New(0, 12, 1, th, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := fakeRand{}
	// Deliver T1 round-2 votes first (buffered), then T1 round-1 votes.
	for q := 1; q <= th.T1; q++ {
		p.Deliver(sim.Message{From: sim.ProcID(q), Payload: Vote{R: 2, X: 0}}, r)
	}
	for q := 1; q <= th.T1; q++ {
		p.Deliver(sim.Message{From: sim.ProcID(q), Payload: Vote{R: 1, X: 0}}, r)
	}
	if rd, _ := p.Round(); rd != 3 {
		t.Fatalf("round = %d after cascade, want 3", rd)
	}
	if v, ok := p.Output(); !ok || v != 0 {
		t.Fatalf("output = (%d, %v), want (0, true): T2 unanimous rounds decide", v, ok)
	}
}

func TestNewRejectsBadThresholds(t *testing.T) {
	if _, err := New(0, 12, 1, Thresholds{T1: 11, T2: 10, T3: 9}, 0); err == nil {
		t.Fatal("want error for invalid thresholds")
	}
}

func TestNewFactoryPanicsOnBadThresholds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFactory with invalid thresholds did not panic")
		}
	}()
	NewFactory(12, 5, Thresholds{T1: 2, T2: 2, T3: 2})
}

func TestRoundsStayInLockstep(t *testing.T) {
	// Window-mode invariant behind the Theorem 4 proof's induction: "in
	// window w, at least n-t processors will enter the window with r = w".
	// Across adversaries, all synchronized processors share one round
	// number at every window boundary.
	for _, mk := range []func() sim.WindowAdversary{
		func() sim.WindowAdversary { return adversary.FullDelivery{} },
		func() sim.WindowAdversary { return adversary.NewRandomWindows(4, 0.5, 2) },
		func() sim.WindowAdversary { return &adversary.ResetStorm{} },
	} {
		s := newSystem(t, 18, 2, splitInputs(18), 8)
		adv := mk()
		for w := 0; w < 60 && !s.AllDecided(); w++ {
			if err := s.ApplyWindowWith(adv); err != nil {
				t.Fatal(err)
			}
			rounds := map[int]int{}
			synced := 0
			for i := 0; i < 18; i++ {
				p := s.Proc(sim.ProcID(i)).(*Proc)
				if r, ok := p.Round(); ok {
					rounds[r]++
					synced++
				}
			}
			if len(rounds) > 1 {
				t.Fatalf("window %d: synchronized processors in %d distinct rounds: %v", w, len(rounds), rounds)
			}
			if synced < 18-2 {
				t.Fatalf("window %d: only %d processors synchronized, want >= n-t = 16", w, synced)
			}
		}
	}
}
