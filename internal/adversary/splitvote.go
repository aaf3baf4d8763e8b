package adversary

import (
	"asyncagree/internal/sim"
)

// VoteInfo classifies one message for the split-vote adversary.
type VoteInfo struct {
	// HasValue reports whether the message carries a protocol bit the
	// adversary wants to balance (e.g. a (r, x) vote). Neutral messages
	// (round-sync traffic, '?' proposals) are always delivered.
	HasValue bool
	// Value is the carried bit when HasValue.
	Value sim.Bit
}

// SplitVote is the adversary the paper describes at the end of Section 3:
//
//	"with high probability per round, the adversary can continually extend
//	the execution to last one more round without deciding by showing every
//	processor an approximate split between 0 and 1 messages, and then having
//	all of them set their next bits randomly in step 3."
//
// Each window it counts the 0-votes and 1-votes in the just-sent batch and
// excludes just enough senders of the majority value that every receiver
// sees at most Cap votes for either value — below the deterministic-adoption
// threshold T3, and a fortiori below the decision threshold T2. While the
// exclusion fits within the fault budget t, no processor can make progress
// and all re-randomize; the execution extends one more window. When the
// random bits happen to produce a count so lopsided that the exclusion no
// longer fits in t, the adversary is beaten and delivers everything.
//
// Because the per-window coin flips concentrate around n/2 (the paper's
// O(n^{1/2+eps}) deviation remark), the beaten event has exponentially small
// probability per window for t = cn, which is exactly the mechanism behind
// the exponential expected running time reproduced by experiment E2.
//
// Planning is allocation-free in steady state: the per-sender vote tallies,
// exclusion marks, and the shared sender list live in scratch reused across
// windows, and the plan is the System's own rows (System.UniformWindow). The
// returned Window is valid only until the next PlanDelivery call, matching
// the sim.WindowAdversary usage (the System consumes it before the next
// window).
type SplitVote struct {
	// Classify extracts the balanced bit from a message (algorithm-specific;
	// the stock extractors are the ClassifyVote closures over
	// core.ExtractVote and benor.ExtractVote in registry/algorithms.go).
	Classify func(sim.Message) VoteInfo
	// Cap is the maximum same-value vote count any receiver may see. For
	// the core algorithm use T3-1; for Ben-Or use floor(n/2).
	Cap int

	// GaveUp counts windows where the exclusion did not fit in t and full
	// delivery happened instead.
	GaveUp int
	// Windows counts planned windows.
	Windows int

	// Reusable planning scratch: votes[q] is sender q's classified bit this
	// window (-1 = none), excluded marks the senders hidden this window, and
	// set lists the rest, the one sender set every receiver sees.
	votes    []int8
	excluded []bool
	set      []sim.ProcID
}

var _ sim.WindowAdversary = (*SplitVote)(nil)

// NewSplitVote returns a fresh split-vote adversary. SplitVote carries
// mutable counters and scratch: construct one per trial (or RecycleTrial a
// pooled one) and never share an instance across concurrent executions.
func NewSplitVote(classify func(sim.Message) VoteInfo, cap int) *SplitVote {
	return &SplitVote{Classify: classify, Cap: cap}
}

// RecycleTrial rewinds the adversary's per-execution counters so a pooled
// instance starts the next trial exactly as a fresh one would. Classify and
// Cap persist (they are a function of the cell, not the trial); the
// strategy is deterministic, so the seed is unused.
func (a *SplitVote) RecycleTrial(uint64) {
	a.GaveUp = 0
	a.Windows = 0
}

// PlanDelivery implements sim.WindowAdversary.
func (a *SplitVote) PlanDelivery(s *sim.System, batch []sim.Message) sim.Window {
	a.Windows++
	n := s.N()
	a.ensureScratch(n)

	// A sender's vote this window is the classified value of its messages
	// (all copies of a broadcast carry the same payload; the first
	// value-bearing message wins).
	for _, m := range batch {
		if m.From < 0 || int(m.From) >= n || a.votes[m.From] >= 0 {
			continue
		}
		if info := a.Classify(m); info.HasValue {
			a.votes[m.From] = int8(info.Value)
		}
	}
	return a.planFromVotes(s)
}

// ensureScratch sizes the planning scratch for n senders and clears the
// per-window vote and exclusion marks.
func (a *SplitVote) ensureScratch(n int) {
	if cap(a.votes) < n {
		a.votes = make([]int8, n)
		a.excluded = make([]bool, n)
		a.set = make([]sim.ProcID, 0, n)
	}
	a.votes = a.votes[:n]
	a.excluded = a.excluded[:n]
	for i := 0; i < n; i++ {
		a.votes[i] = -1
		a.excluded[i] = false
	}
}

// planFromVotes turns the classified per-sender votes into the window plan
// (shared by the message and columnar planning paths).
func (a *SplitVote) planFromVotes(s *sim.System) sim.Window {
	n, t := s.N(), s.T()
	var count [2]int
	for p := 0; p < n; p++ {
		if v := a.votes[p]; v >= 0 {
			count[v]++
		}
	}

	e0 := count[0] - a.Cap
	if e0 < 0 {
		e0 = 0
	}
	e1 := count[1] - a.Cap
	if e1 < 0 {
		e1 = 0
	}
	if e0+e1 > t {
		// Beaten this window: the split is too lopsided to hide within the
		// fault budget. Deliver everything.
		a.GaveUp++
		return sim.Window{}
	}

	// Exclude the lowest-ID e0 zero-voters and e1 one-voters (the same
	// choice the sorted-slice implementation made), then show every receiver
	// the remaining senders.
	for p := 0; p < n && (e0 > 0 || e1 > 0); p++ {
		switch {
		case a.votes[p] == 0 && e0 > 0:
			a.excluded[p] = true
			e0--
		case a.votes[p] == 1 && e1 > 0:
			a.excluded[p] = true
			e1--
		}
	}
	set := a.set[:0]
	for p := 0; p < n; p++ {
		if !a.excluded[p] {
			set = append(set, sim.ProcID(p))
		}
	}
	a.set = set
	return s.UniformWindow(set, nil)
}
