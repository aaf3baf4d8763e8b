package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// WindowSend executes the sending steps that open an acceptable window: all
// non-crashed processors take a sending step. It returns the just-sent batch.
//
// Each message is stored once, in the buffer's ring, and the batch is the
// span of ring cells the sends filled: the ring is first made linear (its live
// span moved to cell 0, a no-op after a drained window), so the new messages
// sit contiguously in ID order behind whatever was buffered before. The slice
// is therefore the buffer itself, not a copy: taking a message out of the
// buffer while planning (Buffer.Take) zeroes its batch entry, the window's
// drain zeroes the rest, and the next WindowSend refills the cells.
// Adversaries may read the batch while planning the window but must not
// retain it past the window.
//
// In the strongly adaptive model of Sections 2-4 there are no crashes, so
// all n processors send; the crash-model reuse of windows in Section 5
// (Definition 19) simply has crashed processors contribute nothing.
func (s *System) WindowSend() []Message {
	s.buffer.linearize()
	before := s.buffer.nextID
	s.runPhase(phaseSend, s.ranges(true))
	s.batch = s.buffer.tail(int(s.buffer.nextID - before))
	return s.batch
}

// allowedRow returns receiver i's sender bitset row.
func (s *System) allowedRow(i int) []uint64 {
	return s.allowBits[i*s.allowWords : (i+1)*s.allowWords]
}

// WindowDeliver executes the receiving steps of a window: each processor i
// receives, in ascending sender order, the batch messages addressed to it
// whose sender is in senders[i]. Every sender set must contain >= n-t
// distinct senders (duplicate entries are ignored, so a padded set cannot
// smuggle an effective set below Definition 1's bound). A nil senders slice,
// like a nil per-receiver set, means "all senders". Batch messages not
// delivered are dropped (within the window model, a message not delivered in
// its window is never delivered).
//
// Delivery order is (receiver, sender, ID). For the System's own just-sent
// batch (ownBatch) — every window of every sweep — that order comes from
// bucketByReceiver's O(batch) counting sort. A hand-built batch carries none
// of the invariants the counting sort leans on, nor the one that lets ranges
// run concurrently (every stored copy is addressed to the bucket it sits
// in), so it is comparison-sorted and walked as one range by the caller.
// That is its only difference: validation, the range body, the merge and the
// drain are the same.
func (s *System) WindowDeliver(batch []Message, senders [][]ProcID) error {
	return s.deliverWindow(batch, Window{Senders: senders})
}

// deliverWindow is WindowDeliver under the sender sets of w, in either form.
func (s *System) deliverWindow(batch []Message, w Window) error {
	own := s.ownBatch(batch)
	rs := s.ranges(own)
	if err := s.validateSenders(rs, w); err != nil {
		return err
	}
	if len(batch) == 0 {
		return nil // nobody sent (all crashed, or silent): a legal window with nothing in it
	}
	if own {
		s.bucketByReceiver(batch)
	} else {
		s.sortByReceiver(batch)
	}
	s.phaseBatch = batch
	s.runPhase(phaseDeliver, rs)
	s.phaseBatch = nil
	s.reclaimBatch(batch) // before the drain, which zeroes the own batch's cells
	s.drainWindow(batch, own)
	return nil
}

// ownBatch reports whether batch is the System's own just-sent WindowSend
// batch, recognized by slice identity with the ring span WindowSend returned.
// That batch carries the invariants bucketByReceiver and concurrent ranges
// lean on: every entry is the buffered message itself or, if a planner took
// it, a zero cell no receiver is delivered; To is in range; and the order is
// sender-major with globally ascending IDs. An empty batch (every sender
// crashed) is never "own": it has nothing to order.
func (s *System) ownBatch(batch []Message) bool {
	return len(batch) > 0 && len(batch) == len(s.batch) && &batch[0] == &s.batch[0]
}

// bucketByReceiver computes, into orderOff/orderIdx, the batch indices
// grouped by receiver in stable batch order: orderIdx[orderOff[r]:
// orderOff[r+1]] are the batch positions addressed to receiver r. The own
// batch is sender-major with ascending IDs, so this stable counting sort by
// To reproduces the (To, From, ID) comparison sort exactly, in O(batch).
func (s *System) bucketByReceiver(batch []Message) {
	idx, off := s.orderFor(batch)
	for i := range batch {
		off[int(batch[i].To)+1]++
	}
	for r := 0; r < s.n; r++ {
		off[r+1] += off[r]
	}
	pos := s.orderPos[:s.n]
	copy(pos, off[:s.n])
	for i := range batch {
		r := int(batch[i].To)
		idx[pos[r]] = int32(i)
		pos[r]++
	}
}

// sortByReceiver is bucketByReceiver for a hand-built batch: the batch
// indices comparison-sorted by (To, From, ID), the reference order
// TestBucketedOrderMatchesComparisonSort holds the counting sort to. IDs are
// unique, so the key is a total order and the result is independent of the
// sorting algorithm; an entry listed twice is kept once, since a buffered
// message is delivered at most once.
func (s *System) sortByReceiver(batch []Message) {
	idx, off := s.orderFor(batch)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		ma, mb := &batch[a], &batch[b]
		return cmp.Or(cmp.Compare(ma.To, mb.To), cmp.Compare(ma.From, mb.From), cmp.Compare(ma.ID, mb.ID))
	})
	idx = slices.CompactFunc(idx, func(a, b int32) bool {
		return batch[a].ID == batch[b].ID && batch[a].To == batch[b].To && batch[a].From == batch[b].From
	})
	for _, j := range idx {
		off[int(batch[j].To)+1]++
	}
	for r := 0; r < s.n; r++ {
		off[r+1] += off[r]
	}
}

// orderFor sizes the order buffers for batch, lazily built on the first
// window, and returns orderIdx cut to the batch and orderOff zeroed.
func (s *System) orderFor(batch []Message) (idx, off []int32) {
	if len(s.orderOff) == 0 {
		s.orderOff = make([]int32, s.n+1)
		s.orderPos = make([]int32, s.n)
	}
	if cap(s.orderIdx) < len(batch) {
		s.orderIdx = make([]int32, len(batch))
	}
	clear(s.orderOff)
	return s.orderIdx[:len(batch)], s.orderOff
}

// drainWindow removes the completed window's batch from the buffer. The
// common case — the buffer holds exactly the System's own batch, a dense ID
// span, which window mode guarantees — drains the whole buffer in one
// sweep. Anything else (a hand-built batch, step-mode residue, messages an
// adversary injected or consumed) takes the per-ID loop, which preserves
// non-batch messages and shrugs at entries that are not buffered.
func (s *System) drainWindow(batch []Message, own bool) {
	if own && s.buffer.live == len(batch) &&
		batch[0].ID == s.buffer.idBase && batch[len(batch)-1].ID == s.buffer.nextID {
		s.buffer.DrainAll()
		return
	}
	for i := range batch {
		s.buffer.Take(batch[i].ID)
	}
}

// reclaimBatch hands the completed window's payloads back to senders that
// pool them (PayloadReclaimer). Every batch message is dead at this point —
// delivered or about to be dropped — so its payload box can be reused. An
// entry with ID 0 is a cell a planner emptied (or was never buffered): its
// message went elsewhere, so nothing is reclaimed for it. The batch is
// sender-major and all copies of one broadcast share one payload, so
// deduplicating consecutive equal payloads reclaims each box exactly once.
// The dedup compare runs before the (pricier) interface assertion: lastFrom
// is only ever a sender already proven to be a reclaimer, whose contract
// requires comparable payloads, so the n copies of a broadcast cost one
// assertion, not n.
func (s *System) reclaimBatch(batch []Message) {
	var last any
	lastFrom := ProcID(-1)
	for i := range batch {
		m := &batch[i]
		if m.ID == 0 || (m.From == lastFrom && m.Payload == last) {
			continue
		}
		if m.From < 0 || int(m.From) >= s.n {
			last, lastFrom = nil, -1
			continue // hand-built batch with a foreign sender: nothing to reclaim
		}
		r, ok := s.procs[m.From].(PayloadReclaimer)
		if !ok {
			last, lastFrom = nil, -1
			continue
		}
		last, lastFrom = m.Payload, m.From
		r.ReclaimPayload(m.Payload)
	}
}

// WindowResets executes the at most t resetting steps closing a window.
func (s *System) WindowResets(resets []ProcID) error {
	if len(resets) > s.t {
		return fmt.Errorf("%w: %d resets > t=%d", ErrBadWindow, len(resets), s.t)
	}
	for i, p := range resets {
		if err := s.checkProc(p); err != nil {
			return err
		}
		for j := 0; j < i; j++ { // t is small; quadratic beats a map here
			if resets[j] == p {
				return fmt.Errorf("%w: duplicate reset of processor %d", ErrBadWindow, p)
			}
		}
	}
	if len(resets) > 0 {
		s.reset(resets...)
	}
	return nil
}

// ApplyWindow runs one full acceptable window described by w.
func (s *System) ApplyWindow(w Window) error {
	batch := s.WindowSend()
	if err := s.deliverWindow(batch, w); err != nil {
		return err
	}
	if err := s.WindowResets(w.Resets); err != nil {
		return err
	}
	s.windows++
	s.emit(Event{Kind: EvWindow})
	return nil
}

// RunResult summarizes an execution.
type RunResult struct {
	// Windows is the number of acceptable windows executed (or, in step
	// mode, the number of steps).
	Windows int
	// FirstDecision is the 0-based window of the first decision, or -1.
	FirstDecision int
	// AllDecided reports whether every live, honest processor decided.
	AllDecided bool
	// Agreement and Validity report the safety conditions of Definition 2
	// over the final configuration.
	Agreement, Validity bool
	// Decision is the decided value if at least one processor decided.
	Decision Bit
	// MaxChainDepth is the largest message-chain depth received by any
	// processor (the Section 5 running-time measure).
	MaxChainDepth int
}

// ApplyWindowWith runs one full acceptable window planned by adv, giving it
// full information: it is invoked after the sending steps with the just-sent
// batch. When the columnar kernel is enabled and every guard holds (see
// columnarPlanner), the window instead runs the byte-identical bit-packed
// fast path of columnar.go.
func (s *System) ApplyWindowWith(adv WindowAdversary) error {
	if cp, ok := s.columnarPlanner(adv); ok {
		return s.applyWindowColumnar(cp)
	}
	batch := s.WindowSend()
	w := adv.PlanDelivery(s, batch)
	if err := s.deliverWindow(batch, w); err != nil {
		return err
	}
	if err := s.WindowResets(w.Resets); err != nil {
		return err
	}
	s.windows++
	s.emit(Event{Kind: EvWindow})
	return s.violation
}

// RunWindows executes acceptable windows planned by adv until every live,
// honest processor has decided or maxWindows windows have passed. It
// returns the execution summary and the first error (an illegal window or a
// detected safety violation).
func (s *System) RunWindows(adv WindowAdversary, maxWindows int) (RunResult, error) {
	res, _, err := s.RunWindowsUntil(adv, maxWindows, nil)
	return res, err
}

// RunWindowsUntil is RunWindows with a cooperative stall watchdog: expired
// is polled between windows (with the number of completed windows), and a
// true return stops the execution there, reporting stalled = true with the
// partial summary. The check is cooperative on the window boundary — the
// paper's adversaries can stretch a window's length, not wedge one — so a
// runaway trial becomes a recorded non-termination outcome instead of a
// hung worker. A nil expired reproduces RunWindows exactly, and the nil
// fast path costs the happy path nothing but one comparison per window.
func (s *System) RunWindowsUntil(adv WindowAdversary, maxWindows int, expired func(windows int) bool) (res RunResult, stalled bool, err error) {
	for s.windows < maxWindows && !s.AllDecided() {
		if expired != nil && expired(s.windows) {
			return s.Result(), true, s.violation
		}
		if err := s.ApplyWindowWith(adv); err != nil {
			return s.Result(), false, err
		}
	}
	return s.Result(), false, s.violation
}

// Result summarizes the current configuration.
func (s *System) Result() RunResult {
	res := RunResult{
		Windows:       s.windows,
		FirstDecision: s.firstDecision,
		AllDecided:    s.AllDecided(),
		Agreement:     s.AgreementOK(),
		Validity:      s.ValidityOK(),
		MaxChainDepth: s.MaxChainDepth(),
	}
	for i := 0; i < s.n; i++ {
		if s.decidedOK[i] && !s.corrupt[i] {
			res.Decision = s.decidedVal[i]
			break
		}
	}
	return res
}

// AllDecided reports whether every non-crashed, non-corrupted processor has
// written its output bit.
func (s *System) AllDecided() bool {
	for i := 0; i < s.n; i++ {
		if s.crashed[i] || s.corrupt[i] {
			continue
		}
		if !s.decidedOK[i] {
			return false
		}
	}
	return true
}

// DecidedCount returns how many honest processors have decided.
func (s *System) DecidedCount() int {
	c := 0
	for i := 0; i < s.n; i++ {
		if s.decidedOK[i] && !s.corrupt[i] {
			c++
		}
	}
	return c
}

// AgreementOK reports whether the configuration contains only agreeing or
// unwritten honest output bits (Definition 2's first condition).
func (s *System) AgreementOK() bool {
	var v Bit
	have := false
	for i := 0; i < s.n; i++ {
		if !s.decidedOK[i] || s.corrupt[i] {
			continue
		}
		if !have {
			v, have = s.decidedVal[i], true
			continue
		}
		if s.decidedVal[i] != v {
			return false
		}
	}
	return true
}

// ValidityOK reports whether every written honest output equals some input
// (Definition 2's second condition: with binary values this only bites when
// inputs are unanimous).
func (s *System) ValidityOK() bool {
	has := [2]bool{}
	for _, in := range s.inputs {
		has[in] = true
	}
	for i := 0; i < s.n; i++ {
		if s.decidedOK[i] && !s.corrupt[i] && !has[s.decidedVal[i]] {
			return false
		}
	}
	return true
}

// MaxChainDepth returns the maximum message-chain depth received by any
// honest processor.
func (s *System) MaxChainDepth() int {
	max := 0
	for i := 0; i < s.n; i++ {
		if s.corrupt[i] {
			continue
		}
		if s.chainDepth[i] > max {
			max = s.chainDepth[i]
		}
	}
	return max
}

// Outputs returns a copy of the decision state: vals[i] is valid only where
// ok[i] is true.
func (s *System) Outputs() (vals []Bit, ok []bool) {
	return append([]Bit(nil), s.decidedVal...), append([]bool(nil), s.decidedOK...)
}

// ConfigurationSnapshot returns the n-tuple of processor state encodings
// (the configuration sigma in Sigma^n), used by the lower-bound machinery
// for Hamming-distance measurements.
func (s *System) ConfigurationSnapshot() []string {
	out := make([]string, s.n)
	for i := range out {
		out[i] = s.procs[i].Snapshot()
	}
	return out
}
