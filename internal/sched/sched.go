// Package sched makes the delivery discipline of acceptable windows a
// first-class, pluggable subsystem.
//
// The Lewko–Lewko lower bound lives or dies on *which* ≥ n−t senders the
// adversary admits into each acceptable window (Definition 1), yet the
// adversaries in internal/adversary bundle that choice together with resets
// and crash injection. A Scheduler isolates the delivery axis: given the
// window's just-sent batch and the full crash/fault state, it fills the
// System's sender rows (sim.Window.SenderRows), one set per receiver, that
// the window's delivery admits. Everything
// else an adversary does — resets, crashes, corruption — stays with the
// adversary; Compose splices the two together into one sim.WindowAdversary.
//
// A scheduler differs from an adversary in scope, not in power: every
// scheduler here emits only legal windows (each receiver admits ≥ n−t
// distinct senders, property-tested in sched_test.go), so a scheduler is
// exactly the delivery half of a Definition 1 adversary. The AdversaryDriven
// scheduler closes the loop by keeping the adversary's own sender sets,
// making the pre-scheduler behavior one strategy among peers.
//
// Built-in strategies (registered as descriptors in internal/registry and
// selectable via cmd/sweep -scheds and cmd/agree -sched):
//
//   - AdversaryDriven: the adversary's own window plan (the default).
//   - FullDelivery: every message is delivered.
//   - AscendingMinimal: exactly the n−t lowest sender IDs for every
//     receiver — the ascending-order minimal discipline, equivalent to
//     permanently silencing the top t processors (Lemmas 11/13 shape).
//   - SeededRandom: an independent uniformly random (n−t)-subset per
//     receiver per window, deterministic per trial seed.
//   - Laggard: persistently starves a rotating k-subset (k ≤ t) for an
//     epoch of windows, then rotates — bounded unfairness that, unlike
//     fixed silence, eventually reaches every processor.
//   - Alternate: full delivery on even windows, AscendingMinimal on odd
//     ones — a guaranteed-progress lossy discipline.
//
// Schedulers carry per-trial mutable state (rotation cursors, rng streams,
// reusable scratch): construct a fresh one per execution and never share an
// instance across concurrent trials, exactly like adversaries.
package sched

import (
	"asyncagree/internal/rng"
	"asyncagree/internal/sim"
)

// Scheduler chooses, for one acceptable window, which senders' just-sent
// messages each receiver admits.
type Scheduler interface {
	// PlanSenders returns the window's sender sets as sim.Window.SenderRows,
	// or as no rows for "all senders". A scheduler fills the rows
	// s.SenderRows() lends it, one set per receiver, and returns that slice;
	// one that shows every receiver the same set returns
	// s.UniformWindow(set, nil). Every set must hold ≥ n−t distinct senders
	// (Definition 1); sets may include crashed senders — they simply
	// contributed nothing to the batch, matching the crash-model reuse of
	// windows (Definition 19). Resets are not a scheduler's to plan: Compose
	// ignores the field and keeps the adversary's.
	//
	// The rows are the System's scratch, valid only until the next
	// PlanSenders call.
	//
	// batch may be nil: the columnar fast path (sim/columnar.go) never
	// materializes the window's messages. Every built-in scheduler ignores
	// the batch; a custom scheduler that reads it must tolerate nil (and
	// will simply see no messages on columnar windows).
	PlanSenders(s *sim.System, batch []sim.Message) sim.Window
}

// Compose wraps adv so that the window's delivery discipline comes from sch
// while everything else the adversary plans — resets, crash injection —
// is preserved. An AdversaryDriven (or nil) scheduler short-circuits to adv
// itself, keeping the adversary's own sender sets byte-identically.
func Compose(adv sim.WindowAdversary, sch Scheduler) sim.WindowAdversary {
	if sch == nil {
		return adv
	}
	if _, ok := sch.(AdversaryDriven); ok {
		return adv
	}
	return &scheduled{adv: adv, sch: sch}
}

// scheduled is the Compose result: the adversary plans the window, the
// scheduler overrides its sender sets.
type scheduled struct {
	adv sim.WindowAdversary
	sch Scheduler
}

var _ sim.WindowAdversary = (*scheduled)(nil)

// PlanDelivery implements sim.WindowAdversary.
func (c *scheduled) PlanDelivery(s *sim.System, batch []sim.Message) sim.Window {
	return c.splice(c.adv.PlanDelivery(s, batch), s, batch)
}

// splice overwrites the adversary's sender rows with the scheduler's. The
// adversary plans first, so where both fill the System's rows the
// scheduler's are the ones left in them.
func (c *scheduled) splice(w sim.Window, s *sim.System, batch []sim.Message) sim.Window {
	w.SenderRows = c.sch.PlanSenders(s, batch).SenderRows
	return w
}

var _ sim.ColumnarPlanner = (*scheduled)(nil)

// PlansColumnar implements sim.ColumnarPlanner by probing the wrapped
// adversary; schedulers never read the batch (see Scheduler.PlanSenders),
// so the scheduler side always supports columnar windows.
func (c *scheduled) PlansColumnar() bool {
	cp, ok := c.adv.(sim.ColumnarPlanner)
	return ok && cp.PlansColumnar()
}

// PlanDeliveryColumnar implements sim.ColumnarPlanner: the adversary's
// columnar plan with the scheduler's sender sets spliced over it, exactly
// like PlanDelivery.
func (c *scheduled) PlanDeliveryColumnar(s *sim.System, cols *sim.ColumnSet) sim.Window {
	return c.splice(c.adv.(sim.ColumnarPlanner).PlanDeliveryColumnar(s, cols), s, nil)
}

// AdversaryDriven keeps the adversary's own sender sets: Compose
// short-circuits it, so the composed adversary is exactly the wrapped one.
// This is the delivery discipline every pre-scheduler experiment used, now
// one strategy among peers.
type AdversaryDriven struct{}

var _ Scheduler = AdversaryDriven{}

// RecycleTrial is a no-op: the scheduler is stateless.
func (AdversaryDriven) RecycleTrial(uint64) {}

// PlanSenders implements Scheduler. It is never reached through Compose
// (which short-circuits to the adversary); called directly it returns the
// empty plan, i.e. full delivery.
func (AdversaryDriven) PlanSenders(*sim.System, []sim.Message) sim.Window {
	return sim.Window{}
}

// FullDelivery admits every sender for every receiver.
type FullDelivery struct{}

var _ Scheduler = FullDelivery{}

// RecycleTrial is a no-op: the scheduler is stateless.
func (FullDelivery) RecycleTrial(uint64) {}

// PlanSenders implements Scheduler; the empty plan means all senders,
// allocation-free.
func (FullDelivery) PlanSenders(*sim.System, []sim.Message) sim.Window {
	return sim.Window{}
}

// AscendingMinimal admits exactly the n−t lowest sender IDs for every
// receiver: the minimal ascending-order discipline Definition 1 permits. It
// is equivalent to permanently silencing the top t processors, so pair it
// only with silence-tolerant algorithms. Construct via NewAscendingMinimal;
// instances carry reusable scratch and must not be shared across trials.
type AscendingMinimal struct {
	set []sim.ProcID // the window's sender list, reused
}

var _ Scheduler = (*AscendingMinimal)(nil)

// NewAscendingMinimal returns a fresh ascending-minimal scheduler.
func NewAscendingMinimal() *AscendingMinimal { return &AscendingMinimal{} }

// RecycleTrial is a no-op: the only state is scratch every window refills.
func (a *AscendingMinimal) RecycleTrial(uint64) {}

// PlanSenders implements Scheduler.
func (a *AscendingMinimal) PlanSenders(s *sim.System, _ []sim.Message) sim.Window {
	n, t := s.N(), s.T()
	a.set = a.set[:0]
	for p := 0; p < n-t; p++ {
		a.set = append(a.set, sim.ProcID(p))
	}
	return s.UniformWindow(a.set, nil)
}

// SeededRandom admits an independent uniformly random (n−t)-subset per
// receiver per window, drawn from its own deterministic stream: equal seeds
// replay the exact same delivery schedule. Construct via NewSeededRandom;
// instances carry rng state and must not be shared across trials.
type SeededRandom struct {
	rng     *rng.Source
	scratch rng.SubsetScratch
}

var _ Scheduler = (*SeededRandom)(nil)

// NewSeededRandom returns a fresh seeded-random scheduler.
func NewSeededRandom(seed uint64) *SeededRandom {
	return &SeededRandom{rng: rng.New(seed)}
}

// RecycleTrial rewinds the random stream to the state NewSeededRandom(seed)
// would carry, keeping the scratch, so a pooled instance replays the next
// trial exactly as a fresh one would.
func (r *SeededRandom) RecycleTrial(seed uint64) {
	r.rng.Reseed(seed)
}

// PlanSenders implements Scheduler. The sets are drawn straight into the
// System's sender rows: n different sets a window, nothing shared, so a list
// would only be built to be scanned back into the same bits.
func (r *SeededRandom) PlanSenders(s *sim.System, _ []sim.Message) sim.Window {
	n, t := s.N(), s.T()
	if t == 0 {
		return sim.Window{} // all senders, and no draw
	}
	rows, words := s.SenderRows(), s.RowWords()
	for i := 0; i < n; i++ {
		r.rng.SubsetBits(rows[i*words:(i+1)*words], n, n-t, &r.scratch)
	}
	return sim.Window{SenderRows: rows}
}

// Laggard persistently starves a rotating subset: for Epoch consecutive
// windows no receiver admits anything from the current K laggards, then the
// laggard set rotates by K through the ring. K is capped at the system's
// fault budget t, keeping every window acceptable. Unlike fixed silence the
// rotation eventually delivers from every processor, so this is bounded
// unfairness rather than permanent exclusion. Construct via NewLaggard;
// instances carry the rotation cursor and must not be shared across trials.
type Laggard struct {
	// K is the starved-subset size; 0 means "the fault budget t".
	K int
	// Epoch is the number of windows between rotations; 0 means 8.
	Epoch int

	window int
	cursor int
	set    []sim.ProcID // the window's sender list, reused
}

var _ Scheduler = (*Laggard)(nil)

// NewLaggard returns a fresh laggard scheduler starving k processors per
// epoch of `epoch` windows (0 means the defaults: k = t, epoch = 8).
func NewLaggard(k, epoch int) *Laggard { return &Laggard{K: k, Epoch: epoch} }

// RecycleTrial rewinds the rotation state (window counter and cursor) to the
// fresh-construction state; K and Epoch persist. The rotation draws no
// randomness, so the seed is unused.
func (l *Laggard) RecycleTrial(uint64) {
	l.window = 0
	l.cursor = 0
}

// starvedCount resolves K against the fault budget: 0 (or an over-budget
// K) means "the full budget t". Shared by PlanSenders and Starved so the
// reported set can never drift from the starved one.
func (l *Laggard) starvedCount(t int) int {
	if l.K <= 0 || l.K > t {
		return t
	}
	return l.K
}

// epochLen resolves Epoch: 0 means the default of 8 windows.
func (l *Laggard) epochLen() int {
	if l.Epoch <= 0 {
		return 8
	}
	return l.Epoch
}

// PlanSenders implements Scheduler.
func (l *Laggard) PlanSenders(s *sim.System, _ []sim.Message) sim.Window {
	n, t := s.N(), s.T()
	k := l.starvedCount(t)
	epoch := l.epochLen()
	if l.window > 0 && l.window%epoch == 0 {
		l.cursor = (l.cursor + k) % max(n, 1)
	}
	l.window++
	if k == 0 {
		return sim.Window{} // t = 0 leaves nothing to starve
	}
	// Admit everyone outside the current laggard ring segment
	// [cursor, cursor+k).
	l.set = l.set[:0]
	for p := 0; p < n; p++ {
		d := (p - l.cursor + n) % n
		if d < k {
			continue
		}
		l.set = append(l.set, sim.ProcID(p))
	}
	return s.UniformWindow(l.set, nil)
}

// Starved returns the processors the scheduler is currently starving, in
// ring order (for traces and examples; the slice is freshly allocated).
func (l *Laggard) Starved(n, t int) []sim.ProcID {
	k := l.starvedCount(t)
	out := make([]sim.ProcID, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, sim.ProcID((l.cursor+i)%n))
	}
	return out
}

// Alternate interleaves full delivery (even windows) with the ascending
// minimal discipline (odd windows): a lossy schedule with a built-in
// progress guarantee, useful as a gentler cousin of AscendingMinimal.
// Construct via NewAlternate; instances carry the window parity and must
// not be shared across trials.
type Alternate struct {
	window int
	min    AscendingMinimal
}

var _ Scheduler = (*Alternate)(nil)

// NewAlternate returns a fresh alternating scheduler starting with a
// full-delivery window.
func NewAlternate() *Alternate { return &Alternate{} }

// RecycleTrial rewinds the window parity to the fresh-construction state
// (the next window is a full-delivery one); the seed is unused.
func (a *Alternate) RecycleTrial(uint64) { a.window = 0 }

// PlanSenders implements Scheduler.
func (a *Alternate) PlanSenders(s *sim.System, batch []sim.Message) sim.Window {
	odd := a.window%2 == 1
	a.window++
	if !odd {
		return sim.Window{}
	}
	return a.min.PlanSenders(s, batch)
}
