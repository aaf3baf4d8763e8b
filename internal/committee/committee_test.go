package committee

import (
	"slices"
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/bracha"
	"asyncagree/internal/sim"
)

func newSystem(t *testing.T, params Params, inputs []sim.Bit, seed uint64) *sim.System {
	t.Helper()
	s, err := sim.New(sim.Config{
		N: params.N, T: params.N / 3, Seed: seed, Inputs: inputs,
		NewProcess: NewFactory(params),
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

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"defaults 27", DefaultParams(27), false},
		{"group too small", Params{N: 27, GroupSize: 6, GroupT: 2, SeedBits: 8, SurvivorsPerGroup: 2, FinalSize: 9}, true},
		{"zero seed bits", Params{N: 27, GroupSize: 9, GroupT: 2, SeedBits: 0, SurvivorsPerGroup: 3, FinalSize: 9}, true},
		{"survivors too many", Params{N: 27, GroupSize: 9, GroupT: 2, SeedBits: 8, SurvivorsPerGroup: 9, FinalSize: 9}, true},
		{"final too small", Params{N: 27, GroupSize: 9, GroupT: 2, SeedBits: 8, SurvivorsPerGroup: 3, FinalSize: 6}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.p.Validate(); (err != nil) != c.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, c.wantErr)
			}
		})
	}
}

func TestGroupsPartition(t *testing.T) {
	p := DefaultParams(27)
	survivors := make([]sim.ProcID, 30)
	for i := range survivors {
		survivors[i] = sim.ProcID(i)
	}
	groups := p.Groups(survivors)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	total := 0
	for _, g := range groups {
		if len(g) < 9 {
			t.Fatalf("group size %d below target", len(g))
		}
		total += len(g)
	}
	if total != 30 {
		t.Fatalf("partition covers %d of 30", total)
	}
}

func TestElectSurvivorsDeterministic(t *testing.T) {
	group := []sim.ProcID{3, 5, 8, 9, 12, 14, 17, 20, 26}
	a := electSurvivors(group, 42, 3)
	b := electSurvivors(group, 42, 3)
	if want := []sim.ProcID{5, 9, 12}; !slices.Equal(a, want) {
		t.Fatalf("elected %v, want %v", a, want)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("election not deterministic")
		}
	}
	seen := map[sim.ProcID]bool{}
	for _, id := range a {
		if !slices.Contains(group, id) || seen[id] {
			t.Fatalf("invalid election %v", a)
		}
		seen[id] = true
	}
	c := electSurvivors(group, 43, 3)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == 3 {
		t.Log("warning: adjacent seeds elected identical sets (possible but unlikely)")
	}
}

func TestElectAllWhenKLarge(t *testing.T) {
	group := []sim.ProcID{2, 1, 3}
	out := electSurvivors(group, 7, 5)
	if len(out) != 3 || out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("got %v", out)
	}
}

func TestFaultFreeRunDecides(t *testing.T) {
	for _, v := range []sim.Bit{0, 1} {
		params := DefaultParams(27)
		s := newSystem(t, params, unanimous(27, v), 3)
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
	params := DefaultParams(27)
	inputs := make([]sim.Bit, 27)
	for i := range inputs {
		inputs[i] = sim.Bit(i % 2)
	}
	fresh := newSystem(t, params, inputs, 7)
	want, err := fresh.RunWindows(adversary.FullDelivery{}, 3000)
	if err != nil || !want.AllDecided {
		t.Fatalf("fresh trial: %+v, %v", want, err)
	}

	s := newSystem(t, params, unanimous(27, 1), 3)
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

func TestFaultFreeRunDecidesLargerN(t *testing.T) {
	params := DefaultParams(81)
	s := newSystem(t, params, unanimous(81, 1), 5)
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
	params := DefaultParams(27)
	successes := 0
	const trials = 5
	for seed := uint64(1); seed <= trials; seed++ {
		s := newSystem(t, params, unanimous(27, 1), seed)
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
	// committee is known, then silence GroupT+1 of its members: the
	// remaining members cannot finish Bracha (thresholds unreachable), and
	// honest non-members never see a majority of DECIDEs.
	params := DefaultParams(27)
	s := newSystem(t, params, unanimous(27, 1), 11)
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
		// Adaptive strike: silence GroupT+1 final committee members.
		for i := 0; i <= params.GroupT && i < len(final); i++ {
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
	p, err := New(0, DefaultParams(27), 1)
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
	bad := DefaultParams(27)
	bad.GroupT = 3
	if _, err := New(0, bad, 0); err == nil {
		t.Fatal("invalid params accepted")
	}
}
