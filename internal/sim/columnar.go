package sim

import (
	"math/bits"
	"unsafe"
)

// This file implements the columnar representation of a window: a fast path
// through ApplyWindowWith that collapses the window's O(n²) message-at-a-time
// delivery into O(n²/64) bitset words, on the same ranges and the same merge
// as the message representation (shard.go). Algorithms that broadcast one small
// vote record per step (the paper's setting — every message is a (round,
// value) pair) publish their window's broadcast as (round, class, value)
// sender-bitset columns instead of materializing n boxed payload copies;
// each receiver's delivery then reduces to popcount(allowRow & column) per
// column plus a window scan (ledger.go) that reproduces the message path's
// threshold crossings bit for bit. See DESIGN.md §2.
//
// The path is byte-identical to the message-at-a-time pipeline in RunResult,
// ConfigurationSnapshot, and rng consumption, and engages only when every
// guard holds (columnarPlanner): the kernel is enabled (SetColumnar), no
// event observer is installed (the columnar path materializes no Messages,
// so EvSend/EvDeliver traces require the message path), no processor is
// Byzantine-corrupted, every process implements both VoteBroadcaster and
// TallyReceiver, and the adversary implements ColumnarPlanner and currently
// plans without reading the batch. Everything else — windows through
// ApplyWindow or WindowSend/WindowDeliver, non-columnar algorithms, traced
// runs — takes the message path.

// ValNeutral is the smallest neutral (non-value-bearing) column value: a
// published Val < ValNeutral carries the bit Val ∈ {0, 1}, while Val >=
// ValNeutral marks a valueless record (Ben-Or's '?' proposal). Adversaries
// classifying votes by column (the split-vote strategy) skip neutral
// columns, matching the ok=false contract of the message path's classifiers
// (the ClassifyVote closures of registry/algorithms.go).
const ValNeutral uint8 = 2

// VoteColumn is one published (Round, Class, Val) column: bit q of the
// bitset is set iff processor q broadcast that record this window. Columns
// are maintained sorted by (Round, Class, Val), which — because each
// sender's publishes ascend in (Round, Class) within a window — makes
// column order equal per-sender record order for every consumer that scans
// columns front to back.
type VoteColumn struct {
	// Round is the algorithm round the record belongs to.
	Round int
	// Class distinguishes record kinds within a round (core votes publish
	// 0; Ben-Or publishes its Phase). (Round, Class) ascends per sender.
	Class uint8
	// Val is the carried value: a bit for Val < ValNeutral, neutral
	// otherwise.
	Val uint8

	bits []uint64
}

// Word returns word w of the column's sender bitset.
func (c *VoteColumn) Word(w int) uint64 { return c.bits[w] }

// ColumnSet holds one window's published columns plus the union of
// publishing senders. It is reusable scratch owned by a System: reset
// recycles the column bitsets through a free list, so the steady-state
// window loop allocates nothing here.
type ColumnSet struct {
	words   int
	cols    []VoteColumn
	free    [][]uint64
	senders []uint64
}

// retainedBytes estimates the bytes the set keeps: its columns and their
// bitsets, free ones included, and the sender union.
func (cs *ColumnSet) retainedBytes() int64 {
	b := int64(unsafe.Sizeof(VoteColumn{}))*int64(cap(cs.cols)) + 24*int64(cap(cs.free)) + 8*int64(cap(cs.senders))
	for i := range cs.cols {
		b += 8 * int64(cap(cs.cols[i].bits))
	}
	for _, bits := range cs.free {
		b += 8 * int64(cap(bits))
	}
	return b
}

// Words returns the bitset width in 64-bit words ((n+63)/64).
func (cs *ColumnSet) Words() int { return cs.words }

// Columns returns the window's columns, sorted by (Round, Class, Val). The
// slice and the column bitsets are valid until the next window's send.
func (cs *ColumnSet) Columns() []VoteColumn { return cs.cols }

// SenderWord returns word w of the union-of-publishing-senders bitset.
func (cs *ColumnSet) SenderWord(w int) uint64 { return cs.senders[w] }

// reset rewinds the set for a new window of the given word width.
func (cs *ColumnSet) reset(words int) {
	cs.words = words
	for i := range cs.cols {
		cs.free = append(cs.free, cs.cols[i].bits)
		cs.cols[i].bits = nil
	}
	cs.cols = cs.cols[:0]
	if cap(cs.senders) < words {
		cs.senders = make([]uint64, words)
	} else {
		cs.senders = cs.senders[:words]
		clear(cs.senders)
	}
}

// takeRow fetches a cleared bitset row from the free list (or allocates).
func (cs *ColumnSet) takeRow() []uint64 {
	if n := len(cs.free); n > 0 {
		row := cs.free[n-1]
		cs.free = cs.free[:n-1]
		if cap(row) < cs.words {
			return make([]uint64, cs.words)
		}
		row = row[:cs.words]
		clear(row)
		return row
	}
	return make([]uint64, cs.words)
}

// publish records that processor from broadcast (round, class, val) this
// window. Columns are few (one per distinct record in flight), so the
// find-or-insert is a linear scan keeping the sorted order.
func (cs *ColumnSet) publish(from ProcID, round int, class, val uint8) {
	w, bit := int(from)>>6, uint64(1)<<(uint(from)&63)
	cs.senders[w] |= bit
	i := 0
	for ; i < len(cs.cols); i++ {
		c := &cs.cols[i]
		if c.Round == round && c.Class == class && c.Val == val {
			c.bits[w] |= bit
			return
		}
		if c.Round > round || (c.Round == round &&
			(c.Class > class || (c.Class == class && c.Val > val))) {
			break
		}
	}
	row := cs.takeRow()
	row[w] |= bit
	cs.cols = append(cs.cols, VoteColumn{})
	copy(cs.cols[i+1:], cs.cols[i:])
	cs.cols[i] = VoteColumn{Round: round, Class: class, Val: val, bits: row}
}

// VotePublisher is the per-sender publishing handle handed to
// VoteBroadcaster.SendColumnar. It is passed by value and carries the
// authenticated sender identity, the columnar analogue of the System
// stamping Message.From.
type VotePublisher struct {
	cs   *ColumnSet
	from ProcID
}

// Publish records one broadcast-to-all record for this window. Within a
// window a sender must publish at most one record per (round, class), in
// ascending (round, class) order — the invariant the ledger scan's
// column-order-equals-delivery-order reasoning rests on. The broadcast
// queues of core and benor satisfy it by construction.
func (p VotePublisher) Publish(round int, class, val uint8) {
	p.cs.publish(p.from, round, class, val)
}

// WindowTally is the per-receiver delivery view handed to
// TallyReceiver.DeliverTally: the window's columns masked by the receiver's
// allowed-sender row, read through the one Cursor it hands out (ledger.go).
// It is System-owned (or shard-owned) scratch, valid only for the duration
// of the DeliverTally call.
type WindowTally struct {
	cs    *ColumnSet
	allow []uint64 // nil: every sender
	cur   Cursor
}

// VoteBroadcaster is the opt-in sending hook of the columnar kernel: a
// process that can publish its queued broadcast as columns instead of
// materializing Messages. SendColumnar consumes the same queued records
// Send would, so a process alternates freely between the two paths; a
// BroadcastQueue holds them for both.
type VoteBroadcaster interface {
	Process
	// SendColumnar publishes the records Send would have returned through
	// pub, and clears them from the queue as Send does.
	SendColumnar(pub VotePublisher)
}

// TallyReceiver is the opt-in receiving hook: DeliverTally replaces the
// window's per-message Deliver calls with one call carrying the aggregated
// columns. Implementations must consume randomness and mutate state exactly
// as the equivalent message-at-a-time delivery order would (ascending
// sender, per-sender record order) — the byte-identity contract the
// property tests in internal/registry assert. A process that tallies into a
// Ledger meets it by driving the tally's Cursor through the window with
// Ledger.Scan, whose single-bit counterpart Ledger.Add is what its Deliver
// calls.
type TallyReceiver interface {
	// DeliverTally receives the window's records the receiver's row admits,
	// read through t's Cursor, drawing from r exactly as the per-message
	// Deliver calls would.
	DeliverTally(t *WindowTally, r RandSource)
}

// ColumnarPlanner is the adversary half of the opt-in: a WindowAdversary
// that can plan a window from the published columns, without the batch.
// PlansColumnar reports whether the instance currently supports it (a
// wrapper forwards its inner adversary's capability), and
// PlanDeliveryColumnar is PlanDelivery with the columns in the batch's
// stead. Scheduler.PlanSenders implementations receive a nil batch on this
// path and must not depend on it.
type ColumnarPlanner interface {
	WindowAdversary
	// PlansColumnar reports whether the instance can plan the next window
	// from the columns alone.
	PlansColumnar() bool
	// PlanDeliveryColumnar is PlanDelivery with the window's published
	// columns in the batch's stead; it must return the plan PlanDelivery
	// would.
	PlanDeliveryColumnar(s *System, cols *ColumnSet) Window
}

// SetColumnar is the reference switch for the columnar kernel, not a user
// knob: which path runs is decided by the process types and the planner
// (columnarPlanner), and the zero System runs columnar wherever they allow.
// SetColumnar(false) forces every window onto the message-at-a-time path,
// so tests and the scaling experiment can hold the columnar path to it;
// output is byte-identical either way. The setting survives Recycle.
func (s *System) SetColumnar(on bool) { s.colOff = !on }

// columnarPlanner decides whether the next window may take the columnar
// path, returning the capable planner when so. The capability of the
// process set is cached, and checked before the planner, so a message-path
// algorithm's window pays one compare for it: it is only consulted while no
// processor is corrupted, and Recycle rebuilds corrupted processors through
// the construction factory, so the process types — and hence the answer —
// never change while the guard passes.
func (s *System) columnarPlanner(adv WindowAdversary) (ColumnarPlanner, bool) {
	if s.colOff || s.OnEvent != nil || s.totalCorrupt > 0 {
		return nil, false
	}
	if s.colCap == 0 {
		s.colCap = 1
		for i := 0; i < s.n; i++ {
			if _, ok := s.procs[i].(VoteBroadcaster); !ok {
				s.colCap = -1
				break
			}
			if _, ok := s.procs[i].(TallyReceiver); !ok {
				s.colCap = -1
				break
			}
		}
	}
	if s.colCap < 0 {
		return nil, false
	}
	cp, ok := adv.(ColumnarPlanner)
	if !ok || !cp.PlansColumnar() {
		return nil, false
	}
	return cp, true
}

// ColumnarPlanned reports whether ApplyWindowWith(adv) would currently take
// the columnar fast path — the kernel is enabled, no guard vetoes it, and
// adv plans columnar windows. For CLIs reporting the effective mode and for
// tests asserting the fast path is actually exercised.
func (s *System) ColumnarPlanned(adv WindowAdversary) bool {
	_, ok := s.columnarPlanner(adv)
	return ok
}

// applyWindowColumnar runs one full acceptable window on the columnar path:
// publish columns, plan, tally-deliver, reset. The emit call of the legacy
// path is skipped because the guard guarantees OnEvent is nil.
func (s *System) applyWindowColumnar(cp ColumnarPlanner) error {
	s.columnarSend()
	w := cp.PlanDeliveryColumnar(s, &s.colSet)
	if err := s.columnarDeliver(w); err != nil {
		return err
	}
	return s.closeWindow(w.Resets)
}

// columnarSend runs the window's sending steps through SendColumnar and
// builds the per-depth sender buckets the chain-depth accounting needs.
// Exactly like sendRange, every live sender costs one step even when it
// publishes nothing.
func (s *System) columnarSend() {
	s.colSet.reset(s.allowWords)
	for i := 0; i < s.n; i++ {
		if s.crashed[i] {
			continue
		}
		s.steps++
		s.procs[i].(VoteBroadcaster).SendColumnar(VotePublisher{cs: &s.colSet, from: ProcID(i)})
	}
	// Depth buckets: all of a sender's window records share Depth =
	// chainDepth[sender]+1 (chainDepth is pre-window during send), so one
	// bitset row per distinct depth value suffices for the per-receiver
	// max-depth reduction.
	s.colDepths = s.colDepths[:0]
	for i := 0; i < s.n; i++ {
		if s.colSet.senders[i>>6]&(uint64(1)<<(uint(i)&63)) == 0 {
			continue
		}
		s.depthRow(s.chainDepth[i] + 1)[i>>6] |= uint64(1) << (uint(i) & 63)
	}
}

// depthRow returns the (cleared-on-first-use) sender bitset row of depth d,
// creating its bucket if the window hasn't seen d yet. Distinct depth values
// per window are few (senders cluster at the frontier), so a linear scan
// beats a map.
func (s *System) depthRow(d int) []uint64 {
	for j, dd := range s.colDepths {
		if dd == d {
			return s.colDepthRows[j]
		}
	}
	j := len(s.colDepths)
	s.colDepths = append(s.colDepths, d)
	if j < len(s.colDepthRows) {
		row := s.colDepthRows[j]
		if cap(row) < s.allowWords {
			row = make([]uint64, s.allowWords)
		} else {
			row = row[:s.allowWords]
			clear(row)
		}
		s.colDepthRows[j] = row
		return row
	}
	row := make([]uint64, s.allowWords)
	s.colDepthRows = append(s.colDepthRows, row)
	return row
}

// columnarCount returns the message count and maximum chain depth a
// receiver with the given allow row (nil = all senders) observes this
// window: one popcount per column word, exactly the per-receiver delivered
// message count of the legacy path (every (sender, record) pair a receiver
// admits is one delivered message there, stale and duplicate records
// included).
func (s *System) columnarCount(row []uint64) (msgs int64, depth int) {
	w := s.colSet.words
	for ci := range s.colSet.cols {
		cb := s.colSet.cols[ci].bits
		if row == nil {
			for i := 0; i < w; i++ {
				msgs += int64(bits.OnesCount64(cb[i]))
			}
		} else {
			for i := 0; i < w; i++ {
				msgs += int64(bits.OnesCount64(cb[i] & row[i]))
			}
		}
	}
	for j, d := range s.colDepths {
		if d <= depth {
			continue
		}
		db := s.colDepthRows[j]
		for i := 0; i < w; i++ {
			x := db[i]
			if row != nil {
				x &= row[i]
			}
			if x != 0 {
				depth = d
				break
			}
		}
	}
	return msgs, depth
}

// columnarDeliver is the delivery half of the columnar window: validate the
// sender rows into the allow bitset, then tally every receiver range against
// the columns, through the same ranges and the same merge as the message
// path. OnEvent is nil here, so the merge carries no events.
func (s *System) columnarDeliver(w Window) error {
	rs := s.ranges()
	if err := s.validateSenders(rs, w.SenderRows); err != nil {
		return err
	}
	if s.allowAll {
		// The all-senders tally every receiver shares; the ranges only read
		// it.
		s.colFullMsgs, s.colFullDepth = s.columnarCount(nil)
	}
	s.runPhase(phaseTally, rs)
	return nil
}

// tallyRange hands every live receiver of the range its masked tally.
// Receivers that would have received zero messages skip the DeliverTally
// call, matching the message path (which never invokes Deliver, and hence
// never refreshes decision bookkeeping, for them).
func (s *System) tallyRange(sh *windowShard) {
	wt := &sh.tally
	wt.cs = &s.colSet
	for i := sh.lo; i < sh.hi; i++ {
		if s.crashed[i] {
			continue
		}
		var msgs int64
		var depth int
		if s.allowAll {
			msgs, depth = s.colFullMsgs, s.colFullDepth
			wt.allow = nil
		} else {
			row := s.allowedRow(i)
			msgs, depth = s.columnarCount(row)
			wt.allow = row
		}
		if msgs == 0 {
			continue
		}
		sh.steps += msgs
		if s.chainDepth[i] < depth {
			s.chainDepth[i] = depth
		}
		s.procs[i].(TallyReceiver).DeliverTally(wt, s.rngs[i])
		s.recordOutputs(sh, ProcID(i))
	}
}
