// Package lowerbound makes the proof apparatus of Sections 4 and 5 of the
// paper executable and measurable:
//
//   - Lemma 11/20 empirics: sample reachable decided configurations of the
//     core algorithm, split them into the decision sets Z^0_0 and Z^0_1, and
//     measure their Hamming separation (which the paper proves exceeds t).
//   - Theorem 5/17 empirics: drive the split-vote adversary (the concrete
//     strategy from the end of Section 3) across n and measure the
//     windows-to-first-decision distribution, its exponential growth in n,
//     and the survival curve P[no decision within W windows].
//
// The fully general Z^k construction of Definition 12 requires measuring
// probabilities over the unbounded reachable-configuration space of an
// arbitrary algorithm and is not computable; DESIGN.md documents this
// substitution. The ingredients the proof combines — Talagrand's inequality,
// the resampling coupling, and the interpolation lemma — are verified
// exactly in internal/talagrand.
package lowerbound

import (
	"fmt"

	"asyncagree/internal/adversary"
	"asyncagree/internal/core"
	"asyncagree/internal/parallel"
	"asyncagree/internal/registry"
	"asyncagree/internal/sim"
	"asyncagree/internal/stats"
	"asyncagree/internal/stream"
	"asyncagree/internal/talagrand"
)

// coreParams is the setting of the Section 3 slowness argument at (n, t): the
// registered core algorithm with Theorem 4's default thresholds on the
// alternating (split) input assignment.
func coreParams(n, t int, seed uint64) registry.Params {
	return registry.Params{N: n, T: t, Seed: seed, Inputs: registry.SplitInputs(n)}
}

// newCoreSystem builds the core-algorithm system of coreParams.
func newCoreSystem(n, t int, seed uint64) (*sim.System, error) {
	return registry.NewSystem("core", coreParams(n, t, seed))
}

// newSplitVote returns a fresh split-vote adversary tuned to core at (n, t),
// typed so callers can read its GaveUp and Windows counters.
func newSplitVote(n, t int) (*adversary.SplitVote, error) {
	adv, err := registry.NewAdversary("splitvote", "core", coreParams(n, t, 0))
	if err != nil {
		return nil, err
	}
	return adv.(*adversary.SplitVote), nil
}

// ProjectConfiguration encodes the decision-relevant projection of a core
// configuration as a talagrand.Point: per processor, value
// 3*x + outCode where outCode is 0 (unwritten), 1 (decided 0), 2 (decided 1).
// Hamming distances over this projection lower-bound nothing and
// upper-bound nothing in general, but they are exactly the distances between
// the (x, output) parts of the state — the part the Z-set argument
// manipulates (resets erase the rest).
func ProjectConfiguration(s *sim.System) (talagrand.Point, error) {
	n := s.N()
	p := make(talagrand.Point, n)
	for i := 0; i < n; i++ {
		proc, ok := s.Proc(sim.ProcID(i)).(*core.Proc)
		if !ok {
			return nil, fmt.Errorf("lowerbound: processor %d is %T, want *core.Proc", i, s.Proc(sim.ProcID(i)))
		}
		code := 3 * int(proc.Value())
		if v, decided := proc.Output(); decided {
			code += 1 + int(v)
		}
		p[i] = code
	}
	return p, nil
}

// DecisionSets samples reachable configurations at the first window in
// which a decision exists, across `trials` seeds and a battery of
// adversaries, and splits them into Z^0_0 (a 0-decision present) and Z^0_1
// (a 1-decision present) in the projected space.
func DecisionSets(n, t, trials, maxWindows int) (z0, z1 *talagrand.ExplicitSet, err error) {
	// One independent trial per (seed, adversary) pair, fanned across the
	// worker pool; each trial's membership sample folds into the two sets in
	// trial-index order, so the sampled sets are the serial loop's without
	// ever holding the per-trial sample list.
	z0, z1 = talagrand.NewExplicitSet(), talagrand.NewExplicitSet()
	err = parallel.Stream(trials*3,
		func(trial int) (membership, error) {
			seed := uint64(trial/3 + 1)
			advPick := trial % 3
			s, err := newCoreSystem(n, t, seed*17+uint64(advPick))
			if err != nil {
				return membership{}, err
			}
			var adv sim.WindowAdversary
			switch advPick {
			case 0:
				adv = adversary.FullDelivery{}
			case 1:
				adv = adversary.NewRandomWindows(seed, 0.3, t)
			case 2:
				if adv, err = newSplitVote(n, t); err != nil {
					return membership{}, err
				}
			}
			// Step window by window so the configuration is captured at the
			// first decision, not at termination.
			for w := 0; w < maxWindows; w++ {
				if err := s.ApplyWindowWith(adv); err != nil {
					return membership{}, err
				}
				if s.DecidedCount() == 0 {
					continue
				}
				m := membership{}
				if m.point, err = ProjectConfiguration(s); err != nil {
					return membership{}, err
				}
				vals, oks := s.Outputs()
				for i, ok := range oks {
					if ok {
						m.in[vals[i]] = true
					}
				}
				return m, nil
			}
			return membership{}, nil // no decision within maxWindows
		},
		func(_ int, m membership) error {
			m.addTo(z0, z1)
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	return z0, z1, nil
}

// membership is one sampled configuration's projection and which of the two
// decision sets it belongs to (possibly neither, possibly both).
type membership struct {
	point talagrand.Point
	in    [2]bool
}

func (m membership) addTo(z0, z1 *talagrand.ExplicitSet) {
	if m.in[0] {
		z0.Add(m.point)
	}
	if m.in[1] {
		z1.Add(m.point)
	}
}

// SeparationResult reports the measured Hamming separation of the sampled
// decision sets.
type SeparationResult struct {
	N, T int
	// Z0Size and Z1Size are the sampled set cardinalities.
	Z0Size, Z1Size int
	// Distance is Delta(Z^0_0, Z^0_1) over the samples (-1 if a side is
	// empty).
	Distance int
	// Bound is the paper's claim: Distance must exceed T.
	Holds bool
}

// MeasureSeparation runs DecisionSets and evaluates the Lemma 11 claim
// Delta(Z^0_0, Z^0_1) > t on the sample.
func MeasureSeparation(n, t, trials, maxWindows int) (SeparationResult, error) {
	z0, z1, err := DecisionSets(n, t, trials, maxWindows)
	if err != nil {
		return SeparationResult{}, err
	}
	res := SeparationResult{
		N: n, T: t,
		Z0Size: z0.Len(), Z1Size: z1.Len(),
		Distance: talagrand.SetDistance(z0, z1),
	}
	// With one side empty the claim is vacuous (distance > t trivially);
	// report Holds true only on real evidence or vacuity.
	res.Holds = res.Distance < 0 || res.Distance > t
	return res, nil
}

// StallPoint is one (n, t) sample of the exponential-slowness experiment.
type StallPoint struct {
	N, T int
	// Trials is the number of seeds measured.
	Trials int
	// GaveUpFraction is the fraction of windows in which the adversary was
	// beaten (had to deliver everything).
	GaveUpFraction float64
	// Summary and Quantiles reduce the per-trial windows-to-first-decision
	// values (censored at maxWindows) online.
	Summary   stream.Summary
	Quantiles *stream.Reservoir
}

// StallSeries measures windows-to-first-decision under the split-vote
// adversary for each n in ns, with t = floor(n*tFrac) (clamped to at least
// 1), `trials` seeds each, capped at maxWindows. Per-trial measurements are
// reduced online — memory per point is one accumulator, not a slice — with
// summaries identical to the historical collect-then-summarize path.
func StallSeries(ns []int, tFrac float64, trials, maxWindows int) ([]StallPoint, error) {
	out := make([]StallPoint, 0, len(ns))
	for _, n := range ns {
		t := int(float64(n) * tFrac)
		if t < 1 {
			t = 1
		}
		type stallTrial struct{ fd, gaveUp, windows int }
		var fds stream.Summary
		quantiles := stream.NewReservoir(0)
		gaveUp, windows := 0, 0
		err := parallel.Stream(trials,
			func(trial int) (stallTrial, error) {
				s, err := newCoreSystem(n, t, uint64(trial+1))
				if err != nil {
					return stallTrial{}, err
				}
				adv, err := newSplitVote(n, t)
				if err != nil {
					return stallTrial{}, err
				}
				res, err := s.RunWindows(adv, maxWindows)
				if err != nil {
					return stallTrial{}, err
				}
				fd := res.FirstDecision
				if fd < 0 {
					fd = maxWindows // censored
				}
				return stallTrial{fd, adv.GaveUp, adv.Windows}, nil
			},
			func(_ int, r stallTrial) error {
				fds.AddInt(r.fd)
				quantiles.AddInt(r.fd)
				gaveUp += r.gaveUp
				windows += r.windows
				return nil
			})
		if err != nil {
			return nil, err
		}
		point := StallPoint{N: n, T: t, Trials: fds.Count(), Summary: fds, Quantiles: quantiles}
		if windows > 0 {
			point.GaveUpFraction = float64(gaveUp) / float64(windows)
		}
		out = append(out, point)
	}
	return out, nil
}

// FitGrowth fits mean windows-to-decision ~ C * exp(alpha * n) over a stall
// series — the observable counterpart of Theorem 5's C*e^{alpha*n} bound.
func FitGrowth(series []StallPoint) (stats.ExpFit, bool) {
	var xs, ys []float64
	for _, p := range series {
		xs = append(xs, float64(p.N))
		ys = append(ys, p.Summary.Mean())
	}
	return stats.FitExponential(xs, ys)
}

// SurvivalCurve estimates P[no decision within w windows] for each
// checkpoint w in ws, under the split-vote adversary at (n, t), using
// `trials` seeds. First-decision windows reduce into a bounded histogram
// (one bucket per window up to the largest checkpoint), so the curve is
// exact — integer counts, identical to the historical collect-then-count
// path — with memory O(max w), independent of the trial count.
func SurvivalCurve(n, t int, ws []int, trials int) ([]float64, error) {
	maxW := 0
	for _, w := range ws {
		if w > maxW {
			maxW = w
		}
	}
	hist := stream.NewHist(maxW + 2)
	err := parallel.Stream(trials,
		func(trial int) (int, error) {
			s, err := newCoreSystem(n, t, uint64(trial+1))
			if err != nil {
				return 0, err
			}
			adv, err := newSplitVote(n, t)
			if err != nil {
				return 0, err
			}
			res, err := s.RunWindows(adv, maxW)
			if err != nil {
				return 0, err
			}
			if res.FirstDecision < 0 {
				return maxW + 1, nil
			}
			return res.FirstDecision, nil
		},
		func(_ int, fd int) error {
			hist.Add(fd)
			return nil
		})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = float64(hist.CountAtLeast(w)) / float64(trials)
	}
	return out, nil
}
