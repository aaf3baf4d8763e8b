package registry

import (
	"slices"
	"strings"
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/core"
	"asyncagree/internal/rbc"
	"asyncagree/internal/sched"
	"asyncagree/internal/sim"
)

func TestInventoryComplete(t *testing.T) {
	algs := AlgorithmNames()
	wantAlgs := []string{"core", "benor", "bracha", "committee", "paxos"}
	if len(algs) != len(wantAlgs) {
		t.Fatalf("algorithms = %v, want %v", algs, wantAlgs)
	}
	for i, name := range wantAlgs {
		if algs[i] != name {
			t.Fatalf("algorithms = %v, want %v", algs, wantAlgs)
		}
	}
	advs := AdversaryNames()
	wantAdvs := []string{"full", "subsets", "random", "storm", "silence", "splitvote"}
	if len(advs) != len(wantAdvs) {
		t.Fatalf("adversaries = %v, want %v", advs, wantAdvs)
	}
	for i, name := range wantAdvs {
		if advs[i] != name {
			t.Fatalf("adversaries = %v, want %v", advs, wantAdvs)
		}
	}
	scheds := SchedulerNames()
	wantScheds := []string{"adversary", "full", "ascmin", "seeded", "laggard", "alternate"}
	if len(scheds) != len(wantScheds) {
		t.Fatalf("schedulers = %v, want %v", scheds, wantScheds)
	}
	for i, name := range wantScheds {
		if scheds[i] != name {
			t.Fatalf("schedulers = %v, want %v", scheds, wantScheds)
		}
	}
	for _, a := range Algorithms() {
		if a.Description == "" {
			t.Fatalf("algorithm %q under-described", a.Name)
		}
	}
	for _, a := range Adversaries() {
		if a.Description == "" {
			t.Fatalf("adversary %q under-described", a.Name)
		}
	}
	for _, s := range Schedulers() {
		if s.Description == "" {
			t.Fatalf("scheduler %q under-described", s.Name)
		}
	}
}

func TestRegisterRejectsIncomplete(t *testing.T) {
	if err := RegisterAlgorithm(Algorithm{Name: "broken"}); err == nil {
		t.Fatal("incomplete algorithm accepted")
	}
	if err := RegisterScheduler(Scheduler{Name: "broken"}); err == nil {
		t.Fatal("incomplete scheduler accepted")
	}
	if err := RegisterScheduler(Scheduler{
		Name: "full", // duplicate
		New:  func(Params) (sched.Scheduler, error) { return sched.FullDelivery{}, nil },
	}); err == nil {
		t.Fatal("duplicate scheduler accepted")
	}
	if err := RegisterAlgorithm(Algorithm{
		Name:     "core", // duplicate
		Validate: func(Params) error { return nil },
		Factory:  func(Params) (func(sim.ProcID, sim.Bit) sim.Process, error) { return nil, nil },
	}); err == nil {
		t.Fatal("duplicate algorithm accepted")
	}
	if err := RegisterAdversary(Adversary{Name: "broken"}); err == nil {
		t.Fatal("incomplete adversary accepted")
	}
	if err := RegisterAlgorithm(Algorithm{
		Name:     "rows", // a structural bit is not a fault class
		Runs:     map[Class]Promise{PlansRows: Decides},
		Validate: func(Params) error { return nil },
		Factory:  func(Params) (func(sim.ProcID, sim.Bit) sim.Process, error) { return nil, nil },
	}); err == nil {
		t.Fatal("algorithm listing a structural bit in Runs accepted")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := LookupAlgorithm("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := LookupAdversary("nope"); err == nil {
		t.Fatal("unknown adversary accepted")
	}
	if _, err := LookupScheduler("nope"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := NewScheduler("nope", Params{N: 12, T: 1}); err == nil {
		t.Fatal("NewScheduler with unknown scheduler accepted")
	}
	if _, err := NewScheduledAdversary("full", "nope", "core", Params{N: 12, T: 1}); err == nil {
		t.Fatal("NewScheduledAdversary with unknown scheduler accepted")
	}
	if _, err := NewSystem("nope", Params{N: 4, T: 1}); err == nil {
		t.Fatal("NewSystem with unknown algorithm accepted")
	}
	if _, err := NewAdversary("nope", "core", Params{N: 12, T: 1}); err == nil {
		t.Fatal("NewAdversary with unknown adversary accepted")
	}
}

func TestValidationMatchesConstraints(t *testing.T) {
	bad := []struct {
		alg string
		p   Params
	}{
		{"core", Params{N: 12, T: 2}},                             // t >= n/6
		{"benor", Params{N: 4, T: 2}},                             // t >= n/2
		{"bracha", Params{N: 6, T: 2}},                            // n <= 3t
		{"bracha", Params{N: rbc.MaxMembers + 1, T: 1}},           // more members than an RBC instance counts
		{"committee", Params{N: 12, T: 1}},                        // too few survivors for the final committee
		{"committee", Params{N: 36, T: 3}},                        // 12 survivors, then a final committee of 3
		{"paxos", Params{N: 5, T: 1, Proposers: []sim.ProcID{9}}}, // proposer out of range
	}
	for _, c := range bad {
		alg, err := LookupAlgorithm(c.alg)
		if err != nil {
			t.Fatal(err)
		}
		if err := alg.Validate(c.p); err == nil {
			t.Fatalf("%s accepted %+v", c.alg, c.p)
		}
		if _, err := NewSystem(c.alg, c.p); err == nil {
			t.Fatalf("NewSystem(%s) accepted %+v", c.alg, c.p)
		}
	}
}

// TestAdversaryStateIsFresh guards the parallel-trial invariant: every
// NewAdversary call must return fresh mutable state, never a shared
// instance.
func TestAdversaryStateIsFresh(t *testing.T) {
	p := Params{N: 12, T: 1, Seed: 1}
	for _, name := range []string{"storm", "splitvote", "random", "subsets"} {
		a1, err := NewAdversary(name, "core", p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a2, err := NewAdversary(name, "core", p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a1 == a2 {
			t.Fatalf("%s: NewAdversary returned a shared instance", name)
		}
	}
}

// TestSchedulerStateIsFresh extends the same invariant to the stateful
// delivery schedulers (rotation cursors, rng streams, reusable scratch).
func TestSchedulerStateIsFresh(t *testing.T) {
	p := Params{N: 12, T: 1, Seed: 1}
	for _, name := range []string{"ascmin", "seeded", "laggard", "alternate"} {
		s1, err := NewScheduler(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s2, err := NewScheduler(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s1 == s2 {
			t.Fatalf("%s: NewScheduler returned a shared instance", name)
		}
	}
}

// TestSchedulerCompatibilityMatrix pins the scheduler axis of Pair: a
// scheduler that replaces the rows never pairs with an adversary that plans
// them, and a lossy or starving scheduler pairs only with an algorithm
// whose table lists that class.
func TestSchedulerCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		sched, adv, alg string
		want            bool
	}{
		{"adversary", "splitvote", "core", true}, // keeps the adversary's senders
		{"adversary", "full", "committee", true},
		{"full", "full", "committee", true},     // loss-free discipline
		{"full", "splitvote", "core", false},    // would nullify the stalling strategy
		{"full", "silence", "core", false},      // would nullify the silence
		{"ascmin", "full", "core", true},        //
		{"ascmin", "full", "paxos", false},      // persistent starvation can pin the proposer
		{"ascmin", "full", "committee", false},  // lossy vs full-delivery dependence
		{"ascmin", "subsets", "core", false},    // subsets plans its own senders
		{"seeded", "full", "paxos", true},       // bounded loss, termination not asserted
		{"seeded", "full", "committee", false},  //
		{"laggard", "storm", "core", true},      // storm plans resets, not senders
		{"laggard", "random", "core", false},    // random plans senders too
		{"alternate", "full", "bracha", true},   //
		{"alternate", "full", "paxos", false},   // odd windows persistently starve the top t
		{"seeded", "silence", "benor", false},   //
		{"full", "storm", "core", true},         //
		{"laggard", "full", "committee", false}, //
	}
	for _, c := range cases {
		promise, why, err := Pair(c.alg, c.adv, c.sched)
		if err != nil {
			t.Fatalf("Pair(%s, %s, %s): %v", c.alg, c.adv, c.sched, err)
		}
		if got := promise != Unpaired; got != c.want {
			t.Fatalf("Pair(%s, %s, %s) paired = %v (%s), want %v", c.alg, c.adv, c.sched, got, why, c.want)
		}
	}
}

func TestSplitVoteConstruction(t *testing.T) {
	// Tuned caps: core uses T3-1, Ben-Or floor(n/2).
	adv, err := NewAdversary("splitvote", "core", Params{N: 24, T: 3})
	if err != nil {
		t.Fatal(err)
	}
	sv, ok := adv.(*adversary.SplitVote)
	if !ok {
		t.Fatalf("splitvote built %T", adv)
	}
	if want := 24 - 3*3 - 1; sv.Cap != want {
		t.Fatalf("core cap = %d, want %d", sv.Cap, want)
	}
	// The classifier is core's: a vote carries its value, anything else none.
	if info := sv.Classify(sim.Message{Payload: &core.Vote{R: 1, X: 1}}); !info.HasValue || info.Value != 1 {
		t.Fatalf("core vote classified as %+v", info)
	}
	if sv.Classify(sim.Message{Payload: "junk"}).HasValue {
		t.Fatal("junk classified as a vote")
	}
	adv, err = NewAdversary("splitvote", "benor", Params{N: 9, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sv := adv.(*adversary.SplitVote); sv.Cap != 4 {
		t.Fatalf("benor cap = %d, want 4", sv.Cap)
	}
	// Hard error for algorithms with no vote classifier.
	if _, err := NewAdversary("splitvote", "paxos", Params{N: 5, T: 2}); err == nil {
		t.Fatal("splitvote against paxos accepted")
	}
}

func TestSilenceValidatedAtConstruction(t *testing.T) {
	// The registry silences the first t processors; FixedSilence must
	// reject an invalid explicit set up front.
	if _, err := adversary.NewFixedSilence(12, 1, []sim.ProcID{0, 1}); err == nil {
		t.Fatal("silent set larger than t accepted")
	}
	if _, err := adversary.NewFixedSilence(12, 2, []sim.ProcID{12}); err == nil {
		t.Fatal("out-of-range silent processor accepted")
	}
	if _, err := adversary.NewFixedSilence(12, 2, []sim.ProcID{1, 1}); err == nil {
		t.Fatal("duplicate silent processor accepted")
	}
	adv, err := NewAdversary("silence", "core", Params{N: 12, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs, ok := adv.(adversary.FixedSilence)
	if !ok || len(fs.Silent) != 1 || fs.Silent[0] != 0 {
		t.Fatalf("silence built %#v", adv)
	}
}

// TestCompatibilityMatrix pins the sweep's pairing set over the whole
// algorithm × adversary × scheduler grid at 27:3: exactly the 40 triples
// below are paired, every other triple is not, and the default sweep grid
// expands to the cells, incompatible triples and skipped sizes that follow.
func TestCompatibilityMatrix(t *testing.T) {
	paired := func(alg, adv, sched string) bool {
		promise, _, err := Pair(alg, adv, sched)
		if err != nil {
			t.Fatal(err)
		}
		return promise != Unpaired
	}
	all := []string{"adversary", "full", "ascmin", "seeded", "laggard", "alternate"}
	own := []string{"adversary"}
	want := map[string]map[string][]string{
		"core":      {"full": all, "storm": all, "subsets": own, "random": own, "silence": own, "splitvote": own},
		"benor":     {"full": all, "subsets": own, "silence": own, "splitvote": own},
		"bracha":    {"full": all, "subsets": own, "silence": own},
		"committee": {"full": {"adversary", "full"}},
		"paxos":     {"full": {"adversary", "full", "seeded", "laggard"}, "subsets": own},
	}
	count := 0
	for _, alg := range []string{"core", "benor", "bracha", "committee", "paxos"} {
		for _, adv := range []string{"full", "subsets", "random", "storm", "silence", "splitvote"} {
			for _, sched := range all {
				w := slices.Contains(want[alg][adv], sched)
				if got := paired(alg, adv, sched); got != w {
					t.Errorf("%s × %s × %s paired = %v, want %v", alg, adv, sched, got, w)
				}
				if w {
					count++
				}
			}
		}
	}
	if count != 40 {
		t.Fatalf("the pinned table lists %d paired triples, want 40", count)
	}

	m := DefaultMatrix()
	cells, resolved, sweep, err := m.expand()
	if err != nil {
		t.Fatal(err)
	}
	if trials := len(cells) * len(resolved.Seeds); len(cells) != 308 || trials != 924 {
		t.Errorf("default grid: %d cells, %d trials, want 308 and 924", len(cells), trials)
	}
	if sweep.Incompatible != 253 || len(sweep.Skipped) != 3 {
		t.Errorf("default grid: %d incompatible, %d skipped, want 253 and 3", sweep.Incompatible, len(sweep.Skipped))
	}
	const sig = "algs=core,benor,bracha,committee,paxos advs=full,subsets,random,storm,silence,splitvote " +
		"scheds=adversary,full,ascmin,seeded,laggard,alternate sizes=12:1,18:2,24:3,27:3 inputs=split,ones " +
		"seeds=1,2,3 max-windows=20000"
	if got := m.GridSignature(); got != sig {
		t.Errorf("GridSignature = %q, want %q", got, sig)
	}
}

func TestInputPatterns(t *testing.T) {
	for _, p := range InputPatterns() {
		in, err := Inputs(p.Name, 9, 5)
		if err != nil || len(in) != 9 {
			t.Fatalf("Inputs(%q) = %v, %v", p.Name, in, err)
		}
	}
	if _, err := Inputs("nope", 9, 5); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	split := SplitInputs(4)
	if split[0] != 0 || split[1] != 1 || split[2] != 0 || split[3] != 1 {
		t.Fatalf("SplitInputs = %v", split)
	}
	for _, v := range UnanimousInputs(5, 1) {
		if v != 1 {
			t.Fatal("UnanimousInputs wrong")
		}
	}
	names := strings.Join(InputPatternNames(), ",")
	if names != "split,zeros,ones,blocks" {
		t.Fatalf("pattern names = %s", names)
	}
}
