package sim

import "fmt"

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
	s.runPhase(phaseSend, s.ranges())
	s.batch = s.buffer.tail(int(s.buffer.nextID - before))
	return s.batch
}

// allowedRow returns receiver i's sender bitset row.
func (s *System) allowedRow(i int) []uint64 {
	return s.allowBits[i*s.allowWords : (i+1)*s.allowWords]
}

// WindowDeliver executes the receiving steps of the window the preceding
// WindowSend opened: each processor i receives, in ascending sender order,
// the batch messages addressed to it whose sender is in its sender row, rows
// laid out as Window.SenderRows. Every row must hold >= n-t senders; nil
// rows mean every receiver hears every sender. Batch messages not delivered
// are dropped (within the window model, a message not delivered in its
// window is never delivered), and the batch is spent: a second call without
// a new WindowSend validates its rows and delivers nothing.
//
// Delivery order is (receiver, sender, ID), which bucketByReceiver's
// O(batch) counting sort produces from the batch's own order.
func (s *System) WindowDeliver(rows []uint64) error {
	rs := s.ranges()
	if err := s.validateSenders(rs, rows); err != nil {
		return err
	}
	batch := s.batch
	if len(batch) == 0 {
		return nil // nobody sent (all crashed, or silent): a legal window with nothing in it
	}
	s.bucketByReceiver(batch)
	s.phaseBatch = batch
	s.runPhase(phaseDeliver, rs)
	s.phaseBatch = nil
	s.reclaimBatch(batch) // before the drain, which zeroes the batch's cells
	s.drainWindow(batch)
	s.batch = nil
	return nil
}

// bucketByReceiver computes, into orderOff/orderIdx, the batch indices
// grouped by receiver in stable batch order: orderIdx[orderOff[r]:
// orderOff[r+1]] are the batch positions addressed to receiver r. The batch
// is sender-major with ascending IDs and every To is in range (sendRange
// drops the rest), so this stable counting sort by To yields the (To, From,
// ID) order in O(batch).
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
// common case — the buffer holds exactly the batch, a dense ID span, which
// window mode guarantees — drains the whole buffer in one sweep. Anything
// else (step-mode residue, messages an adversary took or dropped while
// planning) takes the per-ID loop, which preserves non-batch messages and
// shrugs at entries that are no longer buffered.
func (s *System) drainWindow(batch []Message) {
	if s.buffer.live == len(batch) &&
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
	s.WindowSend()
	if err := s.WindowDeliver(w.SenderRows); err != nil {
		return err
	}
	return s.closeWindow(w.Resets)
}

// closeWindow is the tail every window path shares: the resetting steps,
// the window count and its trace event, then the first safety violation
// detected so far, so no path can step past one.
func (s *System) closeWindow(resets []ProcID) error {
	if err := s.WindowResets(resets); err != nil {
		return err
	}
	s.windows++
	s.emit(Event{Kind: EvWindow})
	return s.violation
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
	if err := s.WindowDeliver(w.SenderRows); err != nil {
		return err
	}
	return s.closeWindow(w.Resets)
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
