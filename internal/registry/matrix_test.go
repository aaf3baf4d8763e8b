package registry

import (
	"reflect"
	"strings"
	"testing"
)

// quickMatrix is a fast grid still covering every algorithm and adversary.
func quickMatrix() Matrix {
	return Matrix{
		Sizes:      []Size{{N: 12, T: 1}, {N: 27, T: 3}},
		Inputs:     []string{"split", "ones"},
		Seeds:      []uint64{1, 2},
		MaxWindows: 3000,
	}
}

// TestCrossProductSmoke runs every registered algorithm under every
// compatible adversary and asserts the paper's unconditional invariants:
// agreement and validity never break for the safety-certain algorithms, and
// the benign adversary always terminates everything.
func TestCrossProductSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	sweep, err := quickMatrix().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Cells) == 0 || sweep.TrialCount == 0 {
		t.Fatal("empty sweep")
	}

	seenAlg, seenAdv, seenSched := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, c := range sweep.Cells {
		seenAlg[c.Algorithm] = true
		seenAdv[c.Adversary] = true
		seenSched[c.Scheduler] = true
		alg, err := LookupAlgorithm(c.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		if alg.SafetyCertain && (c.AgreeViol > 0 || c.ValidViol > 0) {
			t.Errorf("cell %+v violated safety", c)
		}
		// Benign delivery = the adversary's own plan (benign for the
		// "full" adversary) or the explicit full-delivery scheduler;
		// lossy schedulers may legitimately starve e.g. the Paxos
		// proposer.
		benignDelivery := c.Scheduler == "adversary" || c.Scheduler == "full"
		if c.Adversary == "full" && benignDelivery && c.Decided != c.Trials {
			t.Errorf("cell %+v did not terminate under benign delivery", c)
		}
		// Unanimous inputs decide under every compatible adversary and
		// scheduler (validity forces the unanimous value and the first
		// message wave already carries >= n-t copies of it), except for
		// algorithms whose termination is only guaranteed under benign
		// scheduling.
		if c.Input == "ones" && c.Adversary != "splitvote" &&
			!(alg.BenignTerminationOnly && !(c.Adversary == "full" && benignDelivery)) &&
			c.Decided == 0 {
			t.Errorf("cell %+v never decided unanimous inputs", c)
		}
	}
	for _, name := range AlgorithmNames() {
		if !seenAlg[name] {
			t.Errorf("algorithm %q missing from the sweep", name)
		}
	}
	for _, name := range AdversaryNames() {
		if !seenAdv[name] {
			t.Errorf("adversary %q missing from the sweep", name)
		}
	}
	for _, name := range SchedulerNames() {
		if !seenSched[name] {
			t.Errorf("scheduler %q missing from the sweep", name)
		}
	}
	if sweep.SafetyViolations() != 0 {
		t.Fatalf("SafetyViolations = %d", sweep.SafetyViolations())
	}
}

// TestSweepParallelMatchesSerial is the sweep engine's determinism
// guarantee: the parallel fan-out aggregates byte-identically to the serial
// loop, run after run.
func TestSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	m := Matrix{
		Algorithms: []string{"core", "benor"},
		Sizes:      []Size{{N: 12, T: 1}},
		Inputs:     []string{"split", "ones"},
		Seeds:      []uint64{1, 2, 3},
		MaxWindows: 3000,
	}
	serial, err := m.RunSerial()
	if err != nil {
		t.Fatal(err)
	}
	par, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel sweep diverged from serial:\nserial  %+v\nparallel %+v", serial, par)
	}
	if serial.Table().String() != par.Table().String() {
		t.Fatal("rendered tables differ")
	}
	again, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if par.Table().String() != again.Table().String() {
		t.Fatal("two parallel sweeps with identical seeds diverged")
	}
}

func TestMatrixExpansion(t *testing.T) {
	m := Matrix{
		Algorithms:  []string{"core", "committee"},
		Adversaries: []string{"full", "storm"},
		Schedulers:  []string{"adversary"},
		Sizes:       []Size{{N: 12, T: 1}, {N: 12, T: 3}},
		Inputs:      []string{"ones"},
		Seeds:       []uint64{1},
		MaxWindows:  100,
	}
	cells, resolved, sweep, err := m.expand()
	if err != nil {
		t.Fatal(err)
	}
	// core: full+storm at 12:1 (12:3 invalid, t >= n/6); committee: nothing
	// (12:1 too small, 12:3 also invalid size — and storm incompatible).
	if len(cells) != 2 {
		t.Fatalf("cells = %+v", cells)
	}
	for _, c := range cells {
		if c.Algorithm != "core" || c.Size.N != 12 || c.Size.T != 1 {
			t.Fatalf("unexpected cell %+v", c)
		}
	}
	if total := len(cells) * len(resolved.Seeds); total != 2 {
		t.Fatalf("total trials = %d, want 2", total)
	}
	// Trial derivation is seeds-innermost: trial i belongs to cell i/len(Seeds).
	for i := 0; i < len(cells)*len(resolved.Seeds); i++ {
		ts := resolved.specAt(cells, i)
		if ts.Cell != cells[i/len(resolved.Seeds)] || ts.seed != resolved.Seeds[i%len(resolved.Seeds)] {
			t.Fatalf("specAt(%d) = %+v", i, ts)
		}
	}
	// Invalid sizes recorded once per algorithm, not once per adversary.
	if len(sweep.Skipped) != 3 {
		t.Fatalf("skipped = %v", sweep.Skipped)
	}
	for _, s := range sweep.Skipped {
		if !strings.Contains(s, "core 12:3") && !strings.Contains(s, "committee 12:") {
			t.Fatalf("unexpected skip record %q", s)
		}
	}
}

// TestMatrixSchedulerAxisExpansion pins the scheduler axis: an empty
// Schedulers field expands every registered scheduler, sender-planning
// adversaries only ever pair with the adversary-driven scheduler, and
// incompatible quadruples are counted, not run.
func TestMatrixSchedulerAxisExpansion(t *testing.T) {
	m := Matrix{
		Algorithms:  []string{"core"},
		Adversaries: []string{"full", "splitvote"},
		Sizes:       []Size{{N: 12, T: 1}},
		Inputs:      []string{"ones"},
		Seeds:       []uint64{1},
		MaxWindows:  100,
	}
	cells, resolved, sweep, err := m.expand()
	if err != nil {
		t.Fatal(err)
	}
	// core×full pairs with all 6 schedulers; core×splitvote only with
	// "adversary" (the other 5 would override its sender sets).
	if total := len(cells) * len(resolved.Seeds); len(cells) != 7 || total != 7 {
		t.Fatalf("cells = %d, trials = %d, want 7 and 7: %+v", len(cells), total, cells)
	}
	for _, c := range cells {
		if c.Adversary == "splitvote" && c.Scheduler != "adversary" {
			t.Fatalf("splitvote paired with sender-overriding scheduler: %+v", c)
		}
	}
	if sweep.Incompatible != 5 {
		t.Fatalf("incompatible = %d, want 5", sweep.Incompatible)
	}

	// An adversary-level rejection is counted once per (alg, adv, size)
	// triple, never once per scheduler: benor is not reset-tolerant, so
	// benor×storm is one incompatible triple regardless of the six
	// schedulers expanded.
	m = Matrix{
		Algorithms:  []string{"benor"},
		Adversaries: []string{"storm"},
		Sizes:       []Size{{N: 9, T: 2}},
		Inputs:      []string{"ones"},
		Seeds:       []uint64{1},
		MaxWindows:  100,
	}
	cells, _, sweep, err = m.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 || sweep.Incompatible != 1 {
		t.Fatalf("cells = %d, incompatible = %d, want 0 cells and 1 triple", len(cells), sweep.Incompatible)
	}
}

// TestAdversarySchedulerMatchesBareAdversary is the backward-compatibility
// guarantee of the scheduler axis: a trial run through the "adversary"
// scheduler is the pre-scheduler execution itself, byte-identical result by
// result.
func TestAdversarySchedulerMatchesBareAdversary(t *testing.T) {
	cases := []struct {
		alg, adv string
		size     Size
	}{
		{"core", "full", Size{N: 12, T: 1}},
		{"core", "storm", Size{N: 12, T: 1}},
		{"core", "splitvote", Size{N: 12, T: 1}},
		{"benor", "subsets", Size{N: 9, T: 2}},
		{"bracha", "silence", Size{N: 7, T: 2}},
	}
	for _, c := range cases {
		for _, seed := range []uint64{1, 2} {
			inputs, err := Inputs("split", c.size.N, seed)
			if err != nil {
				t.Fatal(err)
			}
			p := Params{N: c.size.N, T: c.size.T, Inputs: inputs, Seed: seed}
			got, err := RunPooledTrial(c.alg, c.adv, "adversary", p, 2000)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.alg, c.adv, err)
			}
			sys, err := NewSystem(c.alg, p)
			if err != nil {
				t.Fatal(err)
			}
			adv, err := NewAdversary(c.adv, c.alg, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sys.RunWindows(adv, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s seed %d: scheduler-axis trial diverged from bare adversary:\ngot  %+v\nwant %+v",
					c.alg, c.adv, seed, got, want)
			}
		}
	}
}

func TestMatrixUnknownNames(t *testing.T) {
	if _, err := (Matrix{Algorithms: []string{"nope"}}).Run(); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := (Matrix{Adversaries: []string{"nope"}}).Run(); err == nil {
		t.Fatal("unknown adversary accepted")
	}
	if _, err := (Matrix{Inputs: []string{"nope"}}).Run(); err == nil {
		t.Fatal("unknown input pattern accepted")
	}
}

func TestSweepTableShape(t *testing.T) {
	m := Matrix{
		Algorithms:  []string{"benor"},
		Adversaries: []string{"full"},
		Schedulers:  []string{"adversary"},
		Sizes:       []Size{{N: 9, T: 2}},
		Inputs:      []string{"ones"},
		Seeds:       []uint64{1, 2},
		MaxWindows:  500,
	}
	sweep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := sweep.Table().String()
	if !strings.Contains(out, "benor") || !strings.Contains(out, "2/2") {
		t.Fatalf("table missing expected cells:\n%s", out)
	}
	if len(sweep.Cells) != 1 || sweep.Cells[0].Decided != 2 {
		t.Fatalf("sweep = %+v", sweep.Cells)
	}
}
