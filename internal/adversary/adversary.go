// Package adversary implements full-information adversaries for the
// simulator in internal/sim.
//
// A window adversary is invoked after the sending steps of each acceptable
// window with the just-sent batch in hand — it sees all processor states and
// all message contents (the paper's adversary has unbounded computational
// power and unrestricted access to both). Deterministic adversaries are
// deterministic functions from the partial execution to the next window,
// exactly matching the paper's definition; randomized "chaos" adversaries
// carry their own seeded source for reproducibility.
//
// The delivery half of a window plan — which ≥ n−t senders each receiver
// admits — is also available as a standalone, pluggable axis: an
// internal/sched Scheduler can be spliced over any adversary here
// (sched.Compose), overriding its sender sets while the adversary keeps
// planning resets and crashes. Adversaries whose strategy lives in the
// sender sets themselves (FixedSilence, SplitVote, RandomWindows) are
// marked PlansSenders in their registry descriptors so the sweep never
// pairs them with an overriding scheduler.
package adversary

import (
	"fmt"
	"math/bits"

	"asyncagree/internal/rng"
	"asyncagree/internal/sim"
)

// FullDelivery is the benign adversary: every message is delivered and no
// resets occur. It witnesses the fast paths (unanimous inputs decide in the
// first window).
type FullDelivery struct{}

var _ sim.WindowAdversary = FullDelivery{}

// RecycleTrial is a no-op: the benign adversary has no state, so a pooled
// instance is already the fresh one.
func (FullDelivery) RecycleTrial(uint64) {}

// PlanDelivery implements sim.WindowAdversary.
func (FullDelivery) PlanDelivery(s *sim.System, _ []sim.Message) sim.Window {
	return sim.Window{} // no sender rows = deliver everything, allocation-free
}

// FixedSilence always excludes the same set of up to t senders from every
// delivery — the "temporarily silenced" adversary used in the proofs of
// Lemmas 11 and 13 (deliver only from the last n-t processors forever).
// Construct via NewFixedSilence so that an oversized or out-of-range silent
// set is rejected up front instead of surfacing as a window-validation error
// mid-run.
type FixedSilence struct {
	// Silent lists the processors whose messages are never delivered.
	Silent []sim.ProcID

	// senders lists the n-|Silent| unsilenced processors, ascending, built
	// once by NewFixedSilence and only ever read; a literal
	// FixedSilence{Silent: ...} has none and builds it per window.
	senders []sim.ProcID
}

var _ sim.WindowAdversary = FixedSilence{}

// RecycleTrial is a no-op: the silent set is fixed at construction and only
// ever read, so a pooled instance is already the fresh one.
func (FixedSilence) RecycleTrial(uint64) {}

// NewFixedSilence validates the silent set against the system shape: at most
// t distinct processors, every ID in [0, n). The returned adversary carries
// its (read-only) sender list for n, so planning a window allocates nothing;
// it is stateless and safe to reuse across trials.
func NewFixedSilence(n, t int, silent []sim.ProcID) (FixedSilence, error) {
	if len(silent) > t {
		return FixedSilence{}, fmt.Errorf("adversary: %d silent processors exceed fault budget t=%d", len(silent), t)
	}
	seen := make(map[sim.ProcID]bool, len(silent))
	for _, p := range silent {
		if p < 0 || int(p) >= n {
			return FixedSilence{}, fmt.Errorf("adversary: silent processor %d out of range [0, %d)", p, n)
		}
		if seen[p] {
			return FixedSilence{}, fmt.Errorf("adversary: duplicate silent processor %d", p)
		}
		seen[p] = true
	}
	a := FixedSilence{Silent: silent}
	a.senders = a.unsilenced(n)
	return a, nil
}

// PlanDelivery implements sim.WindowAdversary: every receiver admits the
// unsilenced senders.
func (a FixedSilence) PlanDelivery(s *sim.System, _ []sim.Message) sim.Window {
	senders := a.senders
	if senders == nil || len(senders)+len(a.Silent) != s.N() {
		senders = a.unsilenced(s.N())
	}
	return s.UniformWindow(senders, nil)
}

// unsilenced lists, ascending, the processors of 0..n-1 outside the silent
// set.
func (a FixedSilence) unsilenced(n int) []sim.ProcID {
	senders := make([]sim.ProcID, 0, n)
	for i := 0; i < n; i++ {
		if !a.silenced(sim.ProcID(i)) {
			senders = append(senders, sim.ProcID(i))
		}
	}
	return senders
}

// silenced reports whether p is in the silent set (linear scan: the set has
// at most t members, and t is small everywhere this adversary runs).
func (a FixedSilence) silenced(p sim.ProcID) bool {
	for _, q := range a.Silent {
		if q == p {
			return true
		}
	}
	return false
}

// RandomWindows is a chaos adversary: each window it delivers from an
// independent random (n-t)-subset to each receiver and resets a random
// subset of up to t processors with probability ResetProb each window.
//
// The sender sets are drawn straight into the System's sender rows (n
// different sets a window, nothing to share); the reset draw goes into a
// one-row scratch of its own and is read back as the ascending list of the
// processors it names. Planning reuses per-instance scratch and the System's
// rows, so the returned Window is valid only until the next PlanDelivery
// call; the System consumes it before then.
type RandomWindows struct {
	rng       *rng.Source
	resetProb float64
	maxResets int

	scratch  rng.SubsetScratch
	resetRow []uint64 // the reset draw's row
	resets   []sim.ProcID
}

var _ sim.WindowAdversary = (*RandomWindows)(nil)

// NewRandomWindows returns a RandomWindows adversary. maxResets caps resets
// per window (it is further capped at t); resetProb is the per-window
// probability of performing resets at all.
func NewRandomWindows(seed uint64, resetProb float64, maxResets int) *RandomWindows {
	return &RandomWindows{rng: rng.New(seed), resetProb: resetProb, maxResets: maxResets}
}

// RecycleTrial rewinds the adversary's random stream to the state a fresh
// NewRandomWindows(seed, ...) construction would carry, keeping the scratch;
// resetProb and maxResets persist (they are a function of the cell).
func (a *RandomWindows) RecycleTrial(seed uint64) {
	a.rng.Reseed(seed)
}

// PlanDelivery implements sim.WindowAdversary.
func (a *RandomWindows) PlanDelivery(s *sim.System, _ []sim.Message) sim.Window {
	n, t := s.N(), s.T()
	var w sim.Window // t = 0: all senders, and no draw
	if t > 0 {
		rows, words := s.SenderRows(), s.RowWords()
		for i := 0; i < n; i++ {
			k := n - a.rng.Intn(t+1) // |S_i| uniform in [n-t, n]
			a.rng.SubsetBits(rows[i*words:(i+1)*words], n, k, &a.scratch)
		}
		w.SenderRows = rows
	}
	budget := a.maxResets
	if budget > t {
		budget = t
	}
	a.resets = a.resets[:0]
	if budget > 0 && a.rng.Float64() < a.resetProb {
		k := 1 + a.rng.Intn(budget)
		if len(a.resetRow) != s.RowWords() {
			a.resetRow = make([]uint64, s.RowWords())
		}
		a.rng.SubsetBits(a.resetRow, n, k, &a.scratch)
		for wi, word := range a.resetRow {
			for ; word != 0; word &= word - 1 {
				a.resets = append(a.resets, sim.ProcID(wi<<6|bits.TrailingZeros64(word)))
			}
		}
		w.Resets = a.resets
	}
	return w
}

// ResetStorm resets a full budget of t processors every single window,
// rotating through the ring so that every processor is hit repeatedly. It
// stresses Theorem 4's claim that correctness survives arbitrary adaptive
// resets within the window constraint.
//
// ResetStorm carries mutable rotation state: construct a fresh one per
// trial (NewResetStorm, or RecycleTrial a pooled one) and never share an
// instance across concurrent executions.
type ResetStorm struct {
	next   int
	resets []sim.ProcID // reusable scratch; valid until the next PlanDelivery
}

var _ sim.WindowAdversary = (*ResetStorm)(nil)

// NewResetStorm returns a fresh reset-storm adversary with its rotation
// cursor at zero.
func NewResetStorm() *ResetStorm { return &ResetStorm{} }

// RecycleTrial rewinds the rotation cursor to zero, the fresh-construction
// state (the storm draws no randomness, so the seed is unused).
func (a *ResetStorm) RecycleTrial(uint64) { a.next = 0 }

// PlanDelivery implements sim.WindowAdversary.
func (a *ResetStorm) PlanDelivery(s *sim.System, _ []sim.Message) sim.Window {
	n, t := s.N(), s.T()
	a.resets = a.resets[:0]
	for k := 0; k < t; k++ {
		a.resets = append(a.resets, sim.ProcID((a.next+k)%n))
	}
	a.next = (a.next + t) % n
	// No sender rows means full delivery — the storm's strategy is resets
	// only.
	return sim.Window{Resets: a.resets}
}

// CrashSchedule composes crash injection with an inner window adversary for
// the Section 5 crash model: the listed processors are crashed just before
// the window with the matching index is planned.
type CrashSchedule struct {
	// Inner plans deliveries.
	Inner sim.WindowAdversary
	// CrashAt maps window index -> processors to crash at its start.
	CrashAt map[int][]sim.ProcID
}

var _ sim.WindowAdversary = (*CrashSchedule)(nil)

// PlanDelivery implements sim.WindowAdversary.
func (a *CrashSchedule) PlanDelivery(s *sim.System, batch []sim.Message) sim.Window {
	for _, p := range a.CrashAt[s.Windows()] {
		// Errors (budget exhausted) deliberately surface later as missing
		// crashes; the schedule is validated by tests.
		_ = s.StepCrash(p)
	}
	return a.Inner.PlanDelivery(s, batch)
}
