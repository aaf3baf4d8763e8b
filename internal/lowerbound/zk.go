package lowerbound

import (
	"fmt"

	"asyncagree/internal/parallel"
	"asyncagree/internal/sim"
	"asyncagree/internal/talagrand"
)

// This file makes Definition 12 of the paper executable for small k:
//
//	"We let Z^k_0 denote the set of reachable configurations such that, for
//	any sets R, S with |R| <= t, |S| >= n-t, the adversary applying
//	R, S, S, ..., S to the configuration will result in a new configuration
//	that belongs to Z^{k-1}_0 with probability > tau."
//
// Membership is decided by Monte Carlo: a partial execution is recorded as
// a replayable schedule (each window paired with the seed of the fresh
// randomness used inside it), so the same configuration can be extended
// with many independent continuations — see sim.System.Reseed. The
// universal quantifier over (R, S) ranges over the uniform windows
// R, S, ..., S the definition prescribes; for the sizes used here that is
// every (R, S) with |R| <= 1 and |S| >= n-1 exactly.
//
// The exact Z^k computation for general algorithms is uncomputable (it
// quantifies over the unbounded reachable-configuration space); k = 1 at
// small n is where the definition becomes directly testable, and experiment
// E13 uses it to check Lemma 13's separation Delta(Z^1_0, Z^1_1) > t on
// samples.

// ScheduledWindow is one recorded acceptable window: the uniform (R, S)
// choice plus the seed of the randomness consumed inside the window.
type ScheduledWindow struct {
	// Senders is the common sender set S (nil = all n).
	Senders []sim.ProcID
	// Resets is the reset set R.
	Resets []sim.ProcID
	// Seed reseeds the processors' randomness just before the window.
	Seed uint64
}

// Schedule is a replayable partial execution of the core algorithm.
type Schedule struct {
	// N, T and SysSeed fix the system.
	N, T    int
	SysSeed uint64
	// Windows is the recorded window sequence.
	Windows []ScheduledWindow
}

// Replay reconstructs the configuration at the end of the schedule.
func (sch Schedule) Replay() (*sim.System, error) {
	s, err := newCoreSystem(sch.N, sch.T, sch.SysSeed)
	if err != nil {
		return nil, err
	}
	for i, w := range sch.Windows {
		s.Reseed(w.Seed)
		if err := s.ApplyWindow(s.UniformWindow(w.Senders, w.Resets)); err != nil {
			return nil, fmt.Errorf("replay window %d: %w", i, err)
		}
	}
	return s, nil
}

// Extend returns the schedule plus one more window.
func (sch Schedule) Extend(w ScheduledWindow) Schedule {
	out := sch
	out.Windows = append(append([]ScheduledWindow(nil), sch.Windows...), w)
	return out
}

// ZkTester decides Z^k membership by Monte Carlo.
type ZkTester struct {
	// Tau is the paper's threshold (Definition 12); use talagrand.Tau(n, t)
	// or an experiment-chosen constant.
	Tau float64
	// Samples is the number of Monte Carlo continuations per (R, S) choice.
	Samples int
}

// uniformChoices enumerates the (R, S) pairs of Definition 12 for the
// schedule's (n, t): every reset set of size <= t (here restricted to size
// 0 or 1... for t = 1 that is exact) and every sender set of size >= n-t
// obtained by dropping at most one processor (exact for t = 1).
func uniformChoices(n, t int) (resets [][]sim.ProcID, senders [][]sim.ProcID) {
	resets = append(resets, nil)
	senders = append(senders, nil) // nil = all
	if t >= 1 {
		for i := 0; i < n; i++ {
			resets = append(resets, []sim.ProcID{sim.ProcID(i)})
			var s []sim.ProcID
			for j := 0; j < n; j++ {
				if j != i {
					s = append(s, sim.ProcID(j))
				}
			}
			senders = append(senders, s)
		}
	}
	return resets, senders
}

// InZk reports (by Monte Carlo) whether the configuration reached by sch
// belongs to Z^k_v. For k = 0 it is exact: some processor has output v.
// For k >= 1 it requires, for every uniform (R, S) choice, that the
// estimated probability of landing in Z^{k-1}_v exceeds Tau.
//
// Cost grows as (choices * Samples)^k times the replay length; intended for
// k <= 1 at n <= 10 (t = 1), where the choice enumeration is exact.
func (zt ZkTester) InZk(sch Schedule, k int, v sim.Bit) (bool, error) {
	if k == 0 {
		s, err := sch.Replay()
		if err != nil {
			return false, err
		}
		vals, oks := s.Outputs()
		for i, ok := range oks {
			if ok && vals[i] == v {
				return true, nil
			}
		}
		return false, nil
	}
	resets, senders := uniformChoices(sch.N, sch.T)
	for _, r := range resets {
		for _, snd := range senders {
			hits := 0
			for sample := 0; sample < zt.Samples; sample++ {
				next := sch.Extend(ScheduledWindow{
					Senders: snd,
					Resets:  r,
					Seed:    uint64(sample)*2654435761 + uint64(len(sch.Windows))*11400714819323198485 + 1,
				})
				in, err := zt.InZk(next, k-1, v)
				if err != nil {
					return false, err
				}
				if in {
					hits++
				}
			}
			if float64(hits)/float64(zt.Samples) <= zt.Tau {
				return false, nil // this (R, S) fails the universal quantifier
			}
		}
	}
	return true, nil
}

// Z1SeparationResult reports the E13 measurement.
type Z1SeparationResult struct {
	N, T int
	// Z1Sizes are the sampled Z^1_0 and Z^1_1 cardinalities (projected).
	Z0Size, Z1Size int
	// Distance is Delta(Z^1_0, Z^1_1) over the samples, -1 if vacuous.
	Distance int
	// Holds is the Lemma 13 claim Distance > t (or vacuous).
	Holds bool
}

// MeasureZ1Separation samples reachable configurations (as replayable
// schedules), tests their Z^1_0 / Z^1_1 membership per Definition 12, and
// measures the Hamming separation of the projected members — Lemma 13 at
// k = 1, on samples.
func MeasureZ1Separation(n, t, prefixes, maxPrefixLen int, zt ZkTester) (Z1SeparationResult, error) {
	// Each prefix's membership test replays thousands of independent
	// continuations — ideal fan-out work for the trial pool. Membership
	// samples fold into the two sets in prefix order, so the sampled sets
	// are the serial loop's without holding per-prefix samples.
	z0, z1 := talagrand.NewExplicitSet(), talagrand.NewExplicitSet()
	err := parallel.Stream(prefixes,
		func(p int) (membership, error) {
			sch := Schedule{N: n, T: t, SysSeed: uint64(p + 1)}
			// Drive the prefix toward decisions with full-delivery windows of
			// varying length so both decided and undecided configurations are
			// sampled.
			length := 1 + p%maxPrefixLen
			for w := 0; w < length; w++ {
				sch = sch.Extend(ScheduledWindow{Seed: uint64(p*131 + w*17 + 5)})
			}
			s, err := sch.Replay()
			if err != nil {
				return membership{}, err
			}
			var m membership
			if m.point, err = ProjectConfiguration(s); err != nil {
				return membership{}, err
			}
			for v := range m.in {
				if m.in[v], err = zt.InZk(sch, 1, sim.Bit(v)); err != nil {
					return membership{}, err
				}
			}
			return m, nil
		},
		func(_ int, m membership) error {
			m.addTo(z0, z1)
			return nil
		})
	if err != nil {
		return Z1SeparationResult{}, err
	}
	res := Z1SeparationResult{
		N: n, T: t,
		Z0Size: z0.Len(), Z1Size: z1.Len(),
		Distance: talagrand.SetDistance(z0, z1),
	}
	res.Holds = res.Distance < 0 || res.Distance > t
	return res, nil
}
