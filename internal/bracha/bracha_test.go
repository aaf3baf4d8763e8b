package bracha

import (
	"testing"
	"testing/quick"

	"asyncagree/internal/adversary"
	"asyncagree/internal/rbc"
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

func TestTagCoordinates(t *testing.T) {
	// Broadcast tags carry their (round, step) in the structured Tag fields
	// beside the agreement's instance id.
	ag, err := NewAgreement(0, []sim.ProcID{0, 1, 2, 3}, 1, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	ag.Start()
	out := ag.Flush()
	if len(out) == 0 {
		t.Fatal("Start queued no broadcast")
	}
	for _, m := range out {
		msg, ok := m.Payload.(*rbc.Msg)
		if !ok {
			t.Fatalf("payload %T, want *rbc.Msg", m.Payload)
		}
		if msg.T != (rbc.Tag{Sender: 0, ID: 9, Round: 1, Step: 1}) {
			t.Fatalf("round-1 step-1 broadcast tagged %+v", msg.T)
		}
	}
}

func TestUnanimousDecides(t *testing.T) {
	for _, v := range []sim.Bit{0, 1} {
		s := newSystem(t, 7, 2, unanimous(7, v), 5)
		res, err := s.RunWindows(adversary.FullDelivery{}, 200)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided || res.Decision != v || !res.Agreement || !res.Validity {
			t.Fatalf("v=%d: %+v", v, res)
		}
	}
}

func TestSplitTerminates(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		s := newSystem(t, 7, 2, split(7), seed)
		res, err := s.RunWindows(adversary.FullDelivery{}, 50000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided || !res.Agreement || !res.Validity {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestToleratesSilentByzantine(t *testing.T) {
	// Corrupt t processors into silence; the other n-t must still agree.
	s := newSystem(t, 7, 2, unanimous(7, 1), 9)
	if err := s.Corrupt(5, NewSilent(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Corrupt(6, NewSilent(6)); err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWindows(adversary.FullDelivery{}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided || res.Decision != 1 || !res.Agreement || !res.Validity {
		t.Fatalf("%+v", res)
	}
}

func TestToleratesEquivocator(t *testing.T) {
	// An equivocating Byzantine sender cannot break agreement: RBC
	// consistency filters its split INITs. The attack must reach the
	// agreement: every honest processor echoes every one of the
	// Equivocator's 50 × 3 tags to all 7 processors.
	for seed := uint64(1); seed <= 3; seed++ {
		s := newSystem(t, 7, 2, split(7), seed)
		if err := s.Corrupt(0, NewEquivocator(0, 7, 50)); err != nil {
			t.Fatal(err)
		}
		echoes := 0
		s.OnEvent = func(ev sim.Event) {
			if msg, ok := ev.Msg.Payload.(*rbc.Msg); ok && ev.Kind == sim.EvSend &&
				ev.Msg.From != 0 && msg.Kind == rbc.KindEcho && msg.T.Sender == 0 {
				echoes++
			}
		}
		res, err := s.RunWindows(adversary.FullDelivery{}, 50000)
		if err != nil {
			t.Fatal(err)
		}
		if want := 50 * 3 * 6 * 7; echoes != want {
			t.Fatalf("seed %d: %d honest ECHOs of the Equivocator's tags, want %d", seed, echoes, want)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("seed %d: safety broken: %+v", seed, res)
		}
		if !res.AllDecided {
			t.Fatalf("seed %d: honest processors failed to decide", seed)
		}
	}
}

func TestToleratesFalseVoter(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		s := newSystem(t, 7, 2, unanimous(7, 1), seed)
		honest, err := New(3, 7, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Corrupt(3, NewFalseVoter(honest)); err != nil {
			t.Fatal(err)
		}
		res, err := s.RunWindows(adversary.FullDelivery{}, 50000)
		if err != nil {
			t.Fatal(err)
		}
		// 6 honest processors with input 1, one liar voting 0: the liar
		// cannot flip validity (majority tally is 6 > n/2) nor agreement.
		if !res.AllDecided || !res.Agreement || res.Decision != 1 {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestAgreementPropertyUnderByzantineMix(t *testing.T) {
	check := func(seed uint64, pattern uint8, strategy uint8) bool {
		const n, tt = 7, 2
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
		switch strategy % 3 {
		case 0:
			_ = s.Corrupt(5, NewSilent(5))
			_ = s.Corrupt(6, NewSilent(6))
		case 1:
			_ = s.Corrupt(5, NewEquivocator(5, n, 30))
		case 2:
			h, err := New(6, n, tt, 0)
			if err != nil {
				return false
			}
			_ = s.Corrupt(6, NewFalseVoter(h))
		}
		res, err := s.RunWindows(adversary.FullDelivery{}, 20000)
		if err != nil {
			return false
		}
		return res.Agreement && res.Validity && res.AllDecided
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBounded(t *testing.T) {
	// The engine must forget completed rounds; otherwise long adversarial
	// executions exhaust memory.
	s := newSystem(t, 7, 2, split(7), 2)
	if _, err := s.RunWindows(adversary.FullDelivery{}, 3000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		p, ok := s.Proc(sim.ProcID(i)).(*Proc)
		if !ok {
			continue
		}
		if count := p.Agreement().InstanceCount(); count > 7*3*4 {
			t.Fatalf("processor %d holds %d RBC instances; forgetting broken", i, count)
		}
		// Recycle rewinds the state and keeps the structures it grew.
		retained := p.RetainedBytes()
		p.Recycle(1)
		if got := p.RetainedBytes(); got < retained {
			t.Fatalf("processor %d retains %d B after Recycle, %d B before", i, got, retained)
		}
	}
}

func TestSnapshot(t *testing.T) {
	p, err := New(0, 7, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Snapshot(), "r=1 s=1 x=1 out=_"; got != want {
		t.Fatalf("Snapshot = %q, want %q", got, want)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 6, 2, 0); err == nil {
		t.Fatal("New with n <= 3t must fail")
	}
}
