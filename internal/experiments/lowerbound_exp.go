package experiments

import (
	"fmt"

	"asyncagree/internal/lowerbound"
	"asyncagree/internal/rng"
	"asyncagree/internal/stats"
	"asyncagree/internal/talagrand"
)

// runE2 regenerates the Section 3 slowness claim: mean windows-to-decision
// under the split-vote adversary grows exponentially in n at fixed t/n.
func runE2(scale Scale) (Result, error) {
	ns := []int{8, 12, 16, 20, 24}
	trials := 10
	maxW := 300000
	if scale == ScaleFull {
		ns = []int{8, 12, 16, 20, 24, 28, 32, 36}
		trials = 30
		maxW = 3000000
	}
	series, err := lowerbound.StallSeries(ns, 1.0/8, trials, maxW)
	if err != nil {
		return Result{}, err
	}
	table := stats.NewTable("n", "t", "trials", "mean-windows", "median", "p90", "max", "adversary-beaten-frac")
	for _, p := range series {
		table.AddRow(p.N, p.T, p.Trials, p.Summary.Mean(), p.Quantiles.Quantile(0.5), p.Quantiles.Quantile(0.9), p.Summary.Max(), p.GaveUpFraction)
	}
	fit, ok := lowerbound.FitGrowth(series)
	notes := []string{}
	pass := ok && fit.Alpha > 0
	if ok {
		notes = append(notes, fmt.Sprintf("fit: mean-windows ~ %.3g * exp(%.4f * n), R^2 = %.3f", fit.C, fit.Alpha, fit.R2))
	}
	grows := len(series) >= 2 && series[0].Summary.Mean() < series[len(series)-1].Summary.Mean()
	pass = pass && grows
	notes = append(notes, verdict(pass, "mean stall grows exponentially in n (positive fitted exponent)"))
	return Result{
		ID:    "E2",
		Title: "Section 3: exponential expected windows under split-vote adversary",
		Table: table,
		Notes: notes,
		Pass:  pass,
	}, nil
}

// runE4 verifies Lemma 9 exactly on enumerable spaces and by Monte Carlo on
// large ones, reporting the worst observed slack.
func runE4(scale Scale) (Result, error) {
	table := stats.NewTable("space", "set family", "cases", "max lhs", "min bound", "violations")
	pass := true

	// Exact: weight half-spaces over {0,1}^n.
	for _, n := range []int{8, 12, 16} {
		s := talagrand.UniformBits(n)
		cases, violations := 0, 0
		maxLHS, minBound := 0.0, 1.0
		for k := 0; k <= n; k += 2 {
			for d := 0; d <= n; d += 2 {
				lhs, rhs, err := talagrand.CheckLemma9(s, talagrand.HammingWeightAtMost(k), talagrand.WeightBallAtMost(k, d), float64(d))
				if err != nil {
					return Result{}, err
				}
				cases++
				if lhs > rhs+1e-12 {
					violations++
				}
				if lhs > maxLHS {
					maxLHS = lhs
				}
				if rhs < minBound {
					minBound = rhs
				}
			}
		}
		if violations > 0 {
			pass = false
		}
		table.AddRow(fmt.Sprintf("{0,1}^%d exact", n), "weight half-spaces", cases, maxLHS, minBound, violations)
	}

	// Exact: random explicit sets.
	r := rng.New(2024)
	s10 := talagrand.UniformBits(10)
	cases, violations := 0, 0
	setCount := 30
	if scale == ScaleFull {
		setCount = 200
	}
	for i := 0; i < setCount; i++ {
		e := talagrand.NewExplicitSet()
		for j := 0; j < 1+r.Intn(40); j++ {
			e.Add(s10.Sample(r))
		}
		d := r.Intn(10)
		lhs, rhs, err := talagrand.CheckLemma9(s10, e, e.Ball(d), float64(d))
		if err != nil {
			return Result{}, err
		}
		cases++
		if lhs > rhs+1e-12 {
			violations++
		}
	}
	if violations > 0 {
		pass = false
	}
	table.AddRow("{0,1}^10 exact", "random explicit sets", cases, "-", "-", violations)

	// Monte Carlo: {0,1}^64.
	s64 := talagrand.UniformBits(64)
	mcViol := 0
	for _, kd := range [][2]int{{24, 16}, {28, 12}, {20, 24}} {
		k, d := kd[0], kd[1]
		lhs, rhs := talagrand.CheckLemma9MC(s64, talagrand.HammingWeightAtMost(k),
			talagrand.WeightBallAtMost(k, d), float64(d), 40000, rng.New(uint64(k*d)))
		if lhs > rhs+0.02 {
			mcViol++
		}
	}
	if mcViol > 0 {
		pass = false
	}
	table.AddRow("{0,1}^64 MC", "weight half-spaces", 3, "-", "-", mcViol)

	return Result{
		ID:    "E4",
		Title: "Lemma 9: Talagrand inequality on product spaces",
		Table: table,
		Notes: []string{verdict(pass, "P[A](1 - P[B(A,d)]) <= exp(-d^2/4n) in every case")},
		Pass:  pass,
	}, nil
}

// runE5 samples decision sets of the core algorithm and measures their
// Hamming separation (Lemma 11's Delta(Z0_0, Z0_1) > t).
func runE5(scale Scale) (Result, error) {
	trials := 10
	if scale == ScaleFull {
		trials = 40
	}
	table := stats.NewTable("n", "t", "|Z0_0|", "|Z0_1|", "Delta(Z0_0,Z0_1)", "claim Delta > t")
	pass := true
	for _, nt := range [][2]int{{8, 1}, {12, 1}, {16, 2}} {
		res, err := lowerbound.MeasureSeparation(nt[0], nt[1], trials, 100000)
		if err != nil {
			return Result{}, err
		}
		if !res.Holds || res.Z0Size+res.Z1Size == 0 {
			pass = false
		}
		table.AddRow(res.N, res.T, res.Z0Size, res.Z1Size, res.Distance, res.Holds)
	}
	return Result{
		ID:    "E5",
		Title: "Lemma 11: Hamming separation of decision sets Z0_0, Z0_1",
		Table: table,
		Notes: []string{
			"states projected to the decision-relevant (x, output) pair per processor",
			verdict(pass, "sampled decision sets separated by more than t in every configuration"),
		},
		Pass: pass,
	}, nil
}

// runE6 demonstrates Lemma 14: for planted far-apart sets and end-point
// distributions avoiding one set each, the crossover mix pi_{j*} avoids both;
// it also verifies the equation-(1) resampling coupling along the way.
func runE6(scale Scale) (Result, error) {
	table := stats.NewTable("n", "eta", "j*", "P[z0] at j*", "P[z1] at j*", "coupling holds")
	pass := true
	ns := []int{8, 12}
	if scale == ScaleFull {
		ns = []int{8, 12, 16, 20}
	}
	for _, n := range ns {
		z0 := talagrand.HammingWeightAtMost(n / 6)
		z1 := talagrand.HammingWeightAtLeast(n - n/6)
		hi := talagrand.BiasedBits(n, 0.85)
		lo := talagrand.BiasedBits(n, 0.15)
		eta := 0.08
		res, err := talagrand.FindJStar(hi, lo, z0, z1, eta)
		if err != nil {
			return Result{}, err
		}
		ok := res.P0AtJStar <= eta && res.P1AtJStar <= eta

		// Equation (1) check with an explicit random set.
		r := rng.New(uint64(n))
		space := talagrand.UniformBits(n)
		e := talagrand.NewExplicitSet()
		for i := 0; i < 8; i++ {
			e.Add(space.Sample(r))
		}
		coupling := true
		for j := 1; j <= n; j++ {
			ball, prev, err := talagrand.ResampleCoupling(hi, lo, j, e)
			if err != nil {
				return Result{}, err
			}
			if ball < prev-1e-12 {
				coupling = false
			}
		}
		if !ok || !coupling {
			pass = false
		}
		table.AddRow(n, eta, res.JStar, res.P0AtJStar, res.P1AtJStar, coupling)
	}
	return Result{
		ID:    "E6",
		Title: "Lemma 14: interpolated distribution avoids both sets",
		Table: table,
		Notes: []string{verdict(pass, "pi_{j*} puts <= eta on both planted sets; resampling coupling (eq. 1) holds at every j")},
		Pass:  pass,
	}, nil
}

// runE7 measures the survival curve P[no decision within W windows] — the
// observable form of Theorem 5's "with probability >= 1/2 the running time
// is >= C e^{alpha n}".
func runE7(scale Scale) (Result, error) {
	trials := 16
	if scale == ScaleFull {
		trials = 60
	}
	checkpoints := []int{1, 4, 16, 64, 256, 1024}
	table := stats.NewTable(append([]string{"n", "t"}, wLabels(checkpoints)...)...)
	pass := true
	for _, nt := range [][2]int{{16, 2}, {24, 3}, {32, 4}} {
		curve, err := lowerbound.SurvivalCurve(nt[0], nt[1], checkpoints, trials)
		if err != nil {
			return Result{}, err
		}
		row := []any{nt[0], nt[1]}
		for _, v := range curve {
			row = append(row, v)
		}
		table.AddRow(row...)
		// Theorem-5 shape: at the largest n the adversary survives >= 16
		// windows with probability >= 1/2.
		if nt[0] == 32 && curve[2] < 0.5 {
			pass = false
		}
	}
	return Result{
		ID:    "E7",
		Title: "Theorem 5: survival probability of the stalling adversary",
		Table: table,
		Notes: []string{verdict(pass, "P[no decision within W windows] >= 1/2 for W growing with n")},
		Pass:  pass,
	}, nil
}

// runE13 makes Definition 12 executable at k = 1: sample reachable
// configurations as replayable schedules, decide Z^1_0 / Z^1_1 membership by
// Monte Carlo over every uniform (R, S) window choice, and measure the
// Hamming separation Lemma 13 proves exceeds t.
func runE13(scale Scale) (Result, error) {
	prefixes, samples := 12, 10
	if scale == ScaleFull {
		prefixes, samples = 40, 20
	}
	table := stats.NewTable("n", "t", "tau", "samples/(R,S)", "|Z1_0|", "|Z1_1|", "Delta(Z1_0,Z1_1)", "claim Delta > t")
	pass := true
	for _, nt := range [][2]int{{8, 1}, {10, 1}} {
		n, t := nt[0], nt[1]
		zt := lowerbound.ZkTester{Tau: 0.3, Samples: samples}
		res, err := lowerbound.MeasureZ1Separation(n, t, prefixes, 6, zt)
		if err != nil {
			return Result{}, err
		}
		if !res.Holds {
			pass = false
		}
		table.AddRow(n, t, zt.Tau, samples, res.Z0Size, res.Z1Size, res.Distance, res.Holds)
	}
	return Result{
		ID:    "E13",
		Title: "Lemma 13 (k=1): Hamming separation of the Monte-Carlo Z^1 sets",
		Table: table,
		Notes: []string{
			"Z^1 membership per Definition 12: for every uniform (R,S) choice, P[next config in Z^0] > tau (Monte Carlo)",
			verdict(pass, "sampled Z^1 sets separated by more than t"),
		},
		Pass: pass,
	}, nil
}

func wLabels(ws []int) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = fmt.Sprintf("P[survive %d]", w)
	}
	return out
}
