package adversary

import (
	"math/bits"

	"asyncagree/internal/sim"
)

// Columnar planning (sim.ColumnarPlanner) for the stock adversaries. On the
// columnar fast path the System never materializes the window's batch, so
// an adversary opts in by planning from the published vote columns instead.
// Most adversaries here never read the batch at all — their columnar plan
// IS their message plan — and SplitVote, the one full-information adversary
// whose strategy depends on message contents, classifies senders straight
// off the columns. Every plan below is bit-for-bit the plan the same
// adversary state would produce on the message path, which is what keeps
// columnar runs byte-identical.

var (
	_ sim.ColumnarPlanner = FullDelivery{}
	_ sim.ColumnarPlanner = FixedSilence{}
	_ sim.ColumnarPlanner = (*RandomWindows)(nil)
	_ sim.ColumnarPlanner = (*ResetStorm)(nil)
	_ sim.ColumnarPlanner = (*SplitVote)(nil)
	_ sim.ColumnarPlanner = (*CrashSchedule)(nil)
)

// PlansColumnar implements sim.ColumnarPlanner.
func (FullDelivery) PlansColumnar() bool { return true }

// PlanDeliveryColumnar implements sim.ColumnarPlanner.
func (a FullDelivery) PlanDeliveryColumnar(s *sim.System, _ *sim.ColumnSet) sim.Window {
	return a.PlanDelivery(s, nil)
}

// PlansColumnar implements sim.ColumnarPlanner.
func (FixedSilence) PlansColumnar() bool { return true }

// PlanDeliveryColumnar implements sim.ColumnarPlanner.
func (a FixedSilence) PlanDeliveryColumnar(s *sim.System, _ *sim.ColumnSet) sim.Window {
	return a.PlanDelivery(s, nil)
}

// PlansColumnar implements sim.ColumnarPlanner.
func (*RandomWindows) PlansColumnar() bool { return true }

// PlanDeliveryColumnar implements sim.ColumnarPlanner.
func (a *RandomWindows) PlanDeliveryColumnar(s *sim.System, _ *sim.ColumnSet) sim.Window {
	return a.PlanDelivery(s, nil)
}

// PlansColumnar implements sim.ColumnarPlanner.
func (*ResetStorm) PlansColumnar() bool { return true }

// PlanDeliveryColumnar implements sim.ColumnarPlanner.
func (a *ResetStorm) PlanDeliveryColumnar(s *sim.System, _ *sim.ColumnSet) sim.Window {
	return a.PlanDelivery(s, nil)
}

// PlansColumnar implements sim.ColumnarPlanner: the split-vote strategy
// reads message contents, but the columns carry exactly the information it
// needs. The Val-based classification below assumes the stock convention
// Classify encodes for the columnar algorithms (a record is value-bearing
// iff its column value is a bit, i.e. below sim.ValNeutral) — true for the
// ClassifyVote closures over core.ExtractVote and benor.ExtractVote in
// registry/algorithms.go, the only classifiers the registry pairs with
// columnar algorithms.
func (*SplitVote) PlansColumnar() bool { return true }

// PlanDeliveryColumnar implements sim.ColumnarPlanner. A sender's vote is
// its first value-bearing record in (round, class) order; iterating the
// sorted columns first-wins reproduces the batch-order classification,
// because each sender's records are published in ascending key order.
func (a *SplitVote) PlanDeliveryColumnar(s *sim.System, cols *sim.ColumnSet) sim.Window {
	a.Windows++
	n := s.N()
	a.ensureScratch(n)
	words := cols.Words()
	for _, c := range cols.Columns() {
		if c.Val >= sim.ValNeutral {
			continue
		}
		for w := 0; w < words; w++ {
			m := c.Word(w)
			for m != 0 {
				q := w<<6 | bits.TrailingZeros64(m)
				m &= m - 1
				if q < n && a.votes[q] < 0 {
					a.votes[q] = int8(c.Val)
				}
			}
		}
	}
	return a.planFromVotes(s)
}

// PlansColumnar implements sim.ColumnarPlanner by probing the inner
// adversary.
func (a *CrashSchedule) PlansColumnar() bool {
	cp, ok := a.Inner.(sim.ColumnarPlanner)
	return ok && cp.PlansColumnar()
}

// PlanDeliveryColumnar implements sim.ColumnarPlanner: crashes fire before
// the inner plan exactly as on the message path. A processor crashed here
// had already broadcast this window — its columns stay, matching the
// legacy path where its messages were already in the batch — and it is
// skipped at tally time like any crashed receiver.
func (a *CrashSchedule) PlanDeliveryColumnar(s *sim.System, cols *sim.ColumnSet) sim.Window {
	for _, p := range a.CrashAt[s.Windows()] {
		_ = s.StepCrash(p)
	}
	return a.Inner.(sim.ColumnarPlanner).PlanDeliveryColumnar(s, cols)
}
