package committee

import (
	"fmt"
	"slices"
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/bracha"
	"asyncagree/internal/sim"
)

func newSystem(t *testing.T, n int, inputs []sim.Bit, seed uint64) *sim.System {
	t.Helper()
	s, err := sim.New(sim.Config{
		N: n, T: n / 3, Seed: seed, Inputs: inputs,
		NewProcess: NewFactory(n),
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

// TestParamsValidate holds the fixed parameters to the bounds the code
// relies on, and Validate to the survivor recursion: for n up to 728 it
// accepts exactly 7-9, 27-35, 81-107 and 243-323, the sizes whose elections
// end at a final committee of more than 3*groupT = 6 members.
func TestParamsValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"defaults 27", Validate(27) == nil},
		{"group too small", groupSize > 3*groupT},
		{"zero seed bits", seedBits > 0 && seedBits <= 62},
		{"survivors too many", survivorsPerGroup > 0 && survivorsPerGroup < groupSize},
		{"final too small", finalSize > 3*groupT && Validate(36) != nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			if !c.ok {
				t.Fatal("bound violated")
			}
		})
	}
	feasible := func(n int) bool {
		return 7 <= n && n <= 9 || 27 <= n && n <= 35 || 81 <= n && n <= 107 || 243 <= n && n <= 323
	}
	for n := -1; n <= 728; n++ {
		if err := Validate(n); (err == nil) != feasible(n) {
			t.Errorf("Validate(%d) = %v", n, err)
		}
	}
}

func TestGroupsPartition(t *testing.T) {
	p := &Proc{n: 30, words: 1}
	for i := range 30 {
		p.survivors = append(p.survivors, sim.ProcID(i))
	}
	p.regroup()
	if len(p.groups) != 4 || p.groups[0] != 0 || p.groups[3] != 30 {
		t.Fatalf("group offsets %v, want 3 groups covering 30", p.groups)
	}
	for g := range 3 {
		members := p.group(g)
		if len(members) < groupSize {
			t.Fatalf("group size %d below target", len(members))
		}
		if want := appendBits(nil, 1, members); p.groupBits[g] != want[0] {
			t.Fatalf("group %d bitset %b, want %b", g, p.groupBits[g], want[0])
		}
	}
}

func TestElectSurvivorsDeterministic(t *testing.T) {
	group := []sim.ProcID{3, 5, 8, 9, 12, 14, 17, 20, 26}
	a := electSurvivors(nil, group, 42)
	slices.Sort(a)
	if want := []sim.ProcID{5, 9, 12}; !slices.Equal(a, want) {
		t.Fatalf("elected %v, want %v", a, want)
	}
	if !slices.Equal(group, []sim.ProcID{3, 5, 8, 9, 12, 14, 17, 20, 26}) {
		t.Fatalf("the election reordered its group: %v", group)
	}
	b := electSurvivors([]sim.ProcID{99}, group, 42)
	slices.Sort(b[1:])
	if b[0] != 99 || !slices.Equal(b[1:], a) {
		t.Fatalf("elected %v after a prefix, want [99] then %v", b, a)
	}
	c := electSurvivors(nil, group, 43)
	slices.Sort(c)
	if slices.Equal(a, c) {
		t.Log("warning: adjacent seeds elected identical sets (possible but unlikely)")
	}
}

func TestFaultFreeRunDecides(t *testing.T) {
	for _, v := range []sim.Bit{0, 1} {
		s := newSystem(t, 27, unanimous(27, v), 3)
		res, err := s.RunWindows(adversary.FullDelivery{}, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided || res.Decision != v || !res.Agreement || !res.Validity {
			t.Fatalf("v=%d: %+v (decided %d/27)", v, res, s.DecidedCount())
		}
	}
}

// TestRecycleRewindsKeptAgreements: a recycled processor keeps the group
// agreements of the levels it ran and rewinds them where the next trial's
// group matches (level 0's always does), and the recycled trial equals a
// fresh one: result, configuration and steps.
func TestRecycleRewindsKeptAgreements(t *testing.T) {
	inputs := make([]sim.Bit, 27)
	for i := range inputs {
		inputs[i] = sim.Bit(i % 2)
	}
	fresh := newSystem(t, 27, inputs, 7)
	want, err := fresh.RunWindows(adversary.FullDelivery{}, 3000)
	if err != nil || !want.AllDecided {
		t.Fatalf("fresh trial: %+v, %v", want, err)
	}

	s := newSystem(t, 27, unanimous(27, 1), 3)
	if res, err := s.RunWindows(adversary.FullDelivery{}, 3000); err != nil || !res.AllDecided {
		t.Fatalf("warm-up trial: %+v, %v", res, err)
	}
	p0 := s.Proc(0).(*Proc)
	kept, retained := p0.runs[0].bits[0], p0.RetainedBytes()
	if err := s.Recycle(7, inputs); err != nil {
		t.Fatal(err)
	}
	got, err := s.RunWindows(adversary.FullDelivery{}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || s.Steps() != fresh.Steps() || !slices.Equal(s.ConfigurationSnapshot(), fresh.ConfigurationSnapshot()) {
		t.Fatalf("recycled trial %+v (%d steps), fresh %+v (%d steps)", got, s.Steps(), want, fresh.Steps())
	}
	if p0.runs[0].bits[0] != kept {
		t.Fatal("level 0's group agreements were built anew, not rewound")
	}
	if p0.RetainedBytes() < retained {
		t.Fatalf("the processor retains %d B after a recycled trial, %d B before", p0.RetainedBytes(), retained)
	}
}

// TestResetRestartsKeepingOutput: a reset processor is rewound as Recycle
// rewinds it, keeping only its output, and publishes its next seeds in new
// boxes, since a message still in flight may hold the old ones.
func TestResetRestartsKeepingOutput(t *testing.T) {
	s := newSystem(t, 27, unanimous(27, 1), 3)
	if res, err := s.RunWindows(adversary.FullDelivery{}, 3000); err != nil || !res.AllDecided {
		t.Fatalf("trial: %+v, %v", res, err)
	}
	p0 := s.Proc(0).(*Proc)
	if p0.runs[0].box == nil {
		t.Fatal("level 0's run published no seed")
	}
	p0.Reset()
	if v, ok := p0.Output(); !ok || v != 1 {
		t.Fatalf("output after a reset: %d, %v", v, ok)
	}
	if snap := p0.Snapshot(); snap != "lvl=0 surv=27 final=false out=1" || p0.FinalCommittee() != nil {
		t.Fatalf("Snapshot after a reset = %q, final committee %v", snap, p0.FinalCommittee())
	}
	if p0.runs[0].box != nil {
		t.Fatal("a reset kept the box of a publication that may still be in flight")
	}
	if out := p0.Send(); len(out) != 1 || out[0].Payload != (helloMsg{}) {
		t.Fatalf("a reset processor sends %v, want one hello", out)
	}
}

// TestSurvMsgPrintsAsItsValue: a boxed publication prints as the struct
// does, so traces show the seed, not an address.
func TestSurvMsgPrintsAsItsValue(t *testing.T) {
	m := survMsg{Level: 1, Group: 2, Seed: 300}
	if got, want := fmt.Sprint(&m), fmt.Sprint(m); got != want {
		t.Fatalf("boxed publication prints %q, want %q", got, want)
	}
}

func TestFaultFreeRunDecidesLargerN(t *testing.T) {
	s := newSystem(t, 81, unanimous(81, 1), 5)
	res, err := s.RunWindows(adversary.FullDelivery{}, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided || res.Decision != 1 || !res.Agreement {
		t.Fatalf("%+v (decided %d/81)", res, s.DecidedCount())
	}
}

func TestNonAdaptiveFaultsUsuallyTolerated(t *testing.T) {
	// A couple of randomly-placed silent Byzantine processors at n=27
	// should usually leave every group within its tolerance.
	successes := 0
	const trials = 5
	for seed := uint64(1); seed <= trials; seed++ {
		s := newSystem(t, 27, unanimous(27, 1), seed)
		// Non-adaptive: positions chosen before the execution.
		victims := []sim.ProcID{sim.ProcID(seed % 27), sim.ProcID((seed*7 + 3) % 27)}
		if victims[0] == victims[1] {
			victims[1] = (victims[1] + 1) % 27
		}
		for _, v := range victims {
			if err := s.Corrupt(v, bracha.NewSilent(v)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.RunWindows(adversary.FullDelivery{}, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if res.AllDecided && res.Agreement && res.Decision == 1 {
			successes++
		}
	}
	if successes < trials-1 {
		t.Fatalf("only %d/%d non-adaptive runs succeeded", successes, trials)
	}
}

func TestAdaptiveAdversaryKillsFinalCommittee(t *testing.T) {
	// The intro's observation: "this approach cannot be used against an
	// adaptive adversary, who can simply wait for the final committee to be
	// determined and then cause faults." Run fault-free until the final
	// committee is known, then silence groupT+1 of its members: the
	// remaining members cannot finish Bracha (thresholds unreachable), and
	// honest non-members never see a majority of DECIDEs.
	s := newSystem(t, 27, unanimous(27, 1), 11)
	adv := adversary.FullDelivery{}
	corrupted := false
	for w := 0; w < 3000 && !s.AllDecided(); w++ {
		if err := s.ApplyWindowWith(adv); err != nil {
			t.Fatal(err)
		}
		if corrupted {
			continue
		}
		p0, ok := s.Proc(0).(*Proc)
		if !ok {
			t.Fatal("unexpected process type")
		}
		final := p0.FinalCommittee()
		if final == nil {
			continue
		}
		// Adaptive strike: silence groupT+1 final committee members.
		for i := 0; i <= groupT && i < len(final); i++ {
			if err := s.Corrupt(final[i], bracha.NewSilent(final[i])); err != nil {
				t.Fatal(err)
			}
		}
		corrupted = true
	}
	if !corrupted {
		t.Fatal("final committee never formed; cannot run the attack")
	}
	if s.AllDecided() {
		t.Fatal("adaptive attack failed: everyone decided anyway")
	}
}

func TestSnapshotAndAccessors(t *testing.T) {
	p, err := New(0, 27, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() != 0 || p.Input() != 1 || p.Level() != 0 {
		t.Fatal("accessors wrong")
	}
	if _, ok := p.Output(); ok {
		t.Fatal("decided at birth")
	}
	if snap := p.Snapshot(); snap != "lvl=0 surv=27 final=false out=_" {
		t.Fatalf("Snapshot = %q", snap)
	}
}

func TestNewRejectsInvalidParams(t *testing.T) {
	// 36 processors elect 12 survivors, and those one group of 3: too few
	// for the final committee's Bracha agreement.
	if _, err := New(0, 36, 0); err == nil {
		t.Fatal("invalid n accepted")
	}
}
