package lowerbound

import (
	"testing"

	"asyncagree/internal/adversary"
	"asyncagree/internal/sim"
	"asyncagree/internal/stream"
	"asyncagree/internal/talagrand"
)

func TestNewCoreSystem(t *testing.T) {
	s, err := newCoreSystem(12, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 12 || s.T() != 1 {
		t.Fatalf("n=%d t=%d", s.N(), s.T())
	}
	// Inputs alternate.
	if s.Input(0) != 0 || s.Input(1) != 1 {
		t.Fatal("inputs not split")
	}
}

func TestNewCoreSystemRejectsLargeT(t *testing.T) {
	if _, err := newCoreSystem(12, 2, 1); err == nil {
		t.Fatal("t = n/6 accepted")
	}
}

func TestProjectConfiguration(t *testing.T) {
	s, err := newCoreSystem(12, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProjectConfiguration(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 12 {
		t.Fatalf("projection dim %d", len(p))
	}
	// Initially x = input, out unwritten: codes alternate 0, 3.
	for i, v := range p {
		want := 3 * (i % 2)
		if v != want {
			t.Fatalf("projection[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestDecisionSetsNonEmptyAndLabeled(t *testing.T) {
	z0, z1, err := DecisionSets(12, 1, 8, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if z0.Len()+z1.Len() == 0 {
		t.Fatal("no decided configurations sampled")
	}
	// Every point in z0 must contain a processor with outCode 1 (decided 0).
	for _, p := range z0.Points() {
		found := false
		for _, c := range p {
			if c%3 == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("z0 point %v has no 0-decision", p)
		}
	}
	for _, p := range z1.Points() {
		found := false
		for _, c := range p {
			if c%3 == 2 {
				found = true
			}
		}
		if !found {
			t.Fatalf("z1 point %v has no 1-decision", p)
		}
	}
}

func TestMeasureSeparationHolds(t *testing.T) {
	// Lemma 11 on the sample: Delta(Z^0_0, Z^0_1) > t.
	res, err := MeasureSeparation(12, 1, 10, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("separation claim failed: %+v", res)
	}
	if res.Z0Size+res.Z1Size == 0 {
		t.Fatal("vacuous sample")
	}
}

func TestStallSeriesGrows(t *testing.T) {
	series, err := StallSeries([]int{8, 16, 24}, 1.0/8, 12, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series length %d", len(series))
	}
	// The mean stall must grow with n (the exponential-slowness shape).
	if !(series[0].Summary.Mean() < series[2].Summary.Mean()) {
		t.Fatalf("stall does not grow: %v vs %v", series[0].Summary.Mean(), series[2].Summary.Mean())
	}
	// The adversary should almost never be beaten per window at n=24.
	if series[2].GaveUpFraction > 0.2 {
		t.Fatalf("adversary beaten too often at n=24: %v", series[2].GaveUpFraction)
	}
	fit, ok := FitGrowth(series)
	if !ok {
		t.Fatal("growth fit failed")
	}
	if fit.Alpha <= 0 {
		t.Fatalf("growth exponent alpha = %v, want positive", fit.Alpha)
	}
}

func TestSurvivalCurveMonotone(t *testing.T) {
	ws := []int{1, 5, 20, 80}
	curve, err := SurvivalCurve(16, 2, ws, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(ws) {
		t.Fatalf("curve length %d", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+1e-9 {
			t.Fatalf("survival curve not non-increasing: %v", curve)
		}
	}
	if curve[0] < 0.9 {
		t.Fatalf("P[no decision within 1 window] = %v, want ~1", curve[0])
	}
}

// TestStallSeriesMatchesBatchSummaries is the parallel reduction's
// byte-identity guarantee: StallSeries' summaries equal a serial loop's,
// accumulator for accumulator, for every rendered statistic.
func TestStallSeriesMatchesBatchSummaries(t *testing.T) {
	const trials, maxW = 12, 200000
	ns := []int{8, 16}
	series, err := StallSeries(ns, 1.0/8, trials, maxW)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		tt := n / 8
		if tt < 1 {
			tt = 1
		}
		// The reference: a serial loop.
		var fds stream.Summary
		quantiles := stream.NewReservoir(0)
		gaveUp, windows := 0, 0
		for trial := 0; trial < trials; trial++ {
			s, err := newCoreSystem(n, tt, uint64(trial+1))
			if err != nil {
				t.Fatal(err)
			}
			adv, err := newSplitVote(n, tt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunWindows(adv, maxW)
			if err != nil {
				t.Fatal(err)
			}
			fd := res.FirstDecision
			if fd < 0 {
				fd = maxW
			}
			fds.AddInt(fd)
			quantiles.AddInt(fd)
			gaveUp += adv.GaveUp
			windows += adv.Windows
		}
		if series[i].Summary != fds {
			t.Fatalf("n=%d: summary %+v != serial %+v", n, series[i].Summary, fds)
		}
		for _, q := range []float64{0.5, 0.9} {
			if got, want := series[i].Quantiles.Quantile(q), quantiles.Quantile(q); got != want {
				t.Fatalf("n=%d: quantile(%v) %v != serial %v", n, q, got, want)
			}
		}
		if series[i].Trials != trials {
			t.Fatalf("n=%d: trials %d", n, series[i].Trials)
		}
		wantFrac := 0.0
		if windows > 0 {
			wantFrac = float64(gaveUp) / float64(windows)
		}
		if series[i].GaveUpFraction != wantFrac {
			t.Fatalf("n=%d: gave-up fraction %v != %v", n, series[i].GaveUpFraction, wantFrac)
		}
	}
}

// TestSurvivalCurveMatchesBatchCounts: the histogram-reduced curve equals
// the historical collect-then-count fractions exactly.
func TestSurvivalCurveMatchesBatchCounts(t *testing.T) {
	const n, tt, trials = 16, 2, 12
	ws := []int{1, 5, 20, 80}
	curve, err := SurvivalCurve(n, tt, ws, trials)
	if err != nil {
		t.Fatal(err)
	}
	maxW := 80
	var firsts []int
	for trial := 0; trial < trials; trial++ {
		s, err := newCoreSystem(n, tt, uint64(trial+1))
		if err != nil {
			t.Fatal(err)
		}
		adv, err := newSplitVote(n, tt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunWindows(adv, maxW)
		if err != nil {
			t.Fatal(err)
		}
		fd := res.FirstDecision
		if fd < 0 {
			fd = maxW + 1
		}
		firsts = append(firsts, fd)
	}
	for i, w := range ws {
		surviving := 0
		for _, fd := range firsts {
			if fd >= w {
				surviving++
			}
		}
		if want := float64(surviving) / float64(trials); curve[i] != want {
			t.Fatalf("P[survive %d] = %v, want %v", w, curve[i], want)
		}
	}
}

// TestDecisionSetsMatchSerialSampling: the block-reduced set pair equals a
// serial trial loop's sampling — same cardinalities, same separation.
func TestDecisionSetsMatchSerialSampling(t *testing.T) {
	const n, tt, trials, maxW = 12, 1, 8, 3000
	z0, z1, err := DecisionSets(n, tt, trials, maxW)
	if err != nil {
		t.Fatal(err)
	}
	sz0, sz1 := talagrand.NewExplicitSet(), talagrand.NewExplicitSet()
	for trial := 0; trial < trials*3; trial++ {
		seed := uint64(trial/3 + 1)
		advPick := trial % 3
		s, err := newCoreSystem(n, tt, seed*17+uint64(advPick))
		if err != nil {
			t.Fatal(err)
		}
		var adv sim.WindowAdversary
		switch advPick {
		case 0:
			adv = adversary.FullDelivery{}
		case 1:
			adv = adversary.NewRandomWindows(seed, 0.3, tt)
		case 2:
			if adv, err = newSplitVote(n, tt); err != nil {
				t.Fatal(err)
			}
		}
		for w := 0; w < maxW; w++ {
			if err := s.ApplyWindowWith(adv); err != nil {
				t.Fatal(err)
			}
			if s.DecidedCount() == 0 {
				continue
			}
			point, err := ProjectConfiguration(s)
			if err != nil {
				t.Fatal(err)
			}
			vals, oks := s.Outputs()
			for i, ok := range oks {
				if ok {
					if vals[i] == 0 {
						sz0.Add(point)
					} else {
						sz1.Add(point)
					}
				}
			}
			break
		}
	}
	if z0.Len() != sz0.Len() || z1.Len() != sz1.Len() {
		t.Fatalf("streaming sets (%d, %d) != serial (%d, %d)",
			z0.Len(), z1.Len(), sz0.Len(), sz1.Len())
	}
	if talagrand.SetDistance(z0, z1) != talagrand.SetDistance(sz0, sz1) {
		t.Fatal("set distances diverged")
	}
}
