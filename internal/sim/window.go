package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// WindowSend executes the sending steps that open an acceptable window: all
// non-crashed processors take a sending step. It returns the just-sent batch.
//
// The returned slice is scratch owned by the System and is overwritten by
// the next WindowSend; adversaries may read it while planning the window but
// must not retain it across windows.
//
// In the strongly adaptive model of Sections 2-4 there are no crashes, so
// all n processors send; the crash-model reuse of windows in Section 5
// (Definition 19) simply has crashed processors contribute nothing.
func (s *System) WindowSend() []Message {
	if s.shardWorkers > 1 && s.parallelSend {
		return s.windowSendSharded()
	}
	batch := s.batchScratch[:0]
	for i := 0; i < s.n; i++ {
		if s.crashed[i] {
			continue
		}
		batch = s.sendInto(ProcID(i), batch)
	}
	s.batchScratch = batch
	return batch
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
// bucketByReceiver's O(batch) counting sort, on the serial path and the
// sharded core alike; only a hand-built batch, which carries none of the
// invariants the counting sort leans on, is comparison-sorted.
func (s *System) WindowDeliver(batch []Message, senders [][]ProcID) error {
	if senders != nil && len(senders) != s.n {
		return fmt.Errorf("%w: got %d sender sets for n=%d", ErrBadWindow, len(senders), s.n)
	}
	own := s.ownBatch(batch)
	if own && s.shardWorkers > 1 {
		return s.windowDeliverSharded(batch, senders)
	}
	if err := s.validateSenders(senders); err != nil {
		return err
	}
	if own {
		s.bucketByReceiver(batch)
		for _, j := range s.orderIdx[:len(batch)] {
			s.deliverAllowed(&batch[j])
		}
	} else {
		// The sort key is a total order (IDs are unique), so the result is
		// independent of the sorting algorithm.
		ordered := append(s.orderScratch[:0], batch...)
		s.orderScratch = ordered
		slices.SortFunc(ordered, func(a, b Message) int {
			if c := cmp.Compare(a.To, b.To); c != 0 {
				return c
			}
			if c := cmp.Compare(a.From, b.From); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
		for i := range ordered {
			s.deliverAllowed(&ordered[i])
		}
	}
	// Undelivered remainder of this window's batch is never delivered.
	for i := range batch {
		s.buffer.Take(batch[i].ID)
	}
	s.reclaimBatch(batch)
	return nil
}

// deliverAllowed delivers batch entry m if its receiver is live and admits
// its sender this window. The message is taken from the buffer first and the
// stored copy delivered, so one an adversary consumed while planning (legal,
// if eccentric) is skipped.
func (s *System) deliverAllowed(m *Message) {
	if s.crashed[m.To] {
		return
	}
	if !s.allowAll[m.To] {
		if m.From < 0 || int(m.From) >= s.n {
			return
		}
		if s.allowedRow(int(m.To))[int(m.From)>>6]&(uint64(1)<<(uint(m.From)&63)) == 0 {
			return
		}
	}
	if taken, ok := s.buffer.Take(m.ID); ok {
		s.deliver(taken)
	}
}

// ownBatch reports whether batch is the System's own just-sent WindowSend
// batch, recognized by slice identity. That batch carries the invariants
// bucketByReceiver and the sharded core lean on: every entry is the verbatim
// stored copy of a buffered message, To is in range, and the order is
// sender-major with globally ascending IDs. An empty batch (every sender
// crashed) is never "own": it has nothing to order.
func (s *System) ownBatch(batch []Message) bool {
	return len(batch) > 0 && len(batch) == len(s.batchScratch) &&
		&batch[0] == &s.batchScratch[0]
}

// bucketByReceiver computes, into orderOff/orderIdx, the batch indices
// grouped by receiver in stable batch order: orderIdx[orderOff[r]:
// orderOff[r+1]] are the batch positions addressed to receiver r. The own
// batch is sender-major with ascending IDs, so this stable counting sort by
// To reproduces the (To, From, ID) comparison sort exactly, in O(batch).
func (s *System) bucketByReceiver(batch []Message) {
	n := s.n
	if len(s.orderOff) == 0 {
		s.orderOff = make([]int32, n+1)
		s.orderPos = make([]int32, n)
	}
	off := s.orderOff[:n+1]
	clear(off)
	for i := range batch {
		off[int(batch[i].To)+1]++
	}
	for r := 0; r < n; r++ {
		off[r+1] += off[r]
	}
	if cap(s.orderIdx) < len(batch) {
		s.orderIdx = make([]int32, len(batch))
	}
	idx := s.orderIdx[:len(batch)]
	pos := s.orderPos[:n]
	copy(pos, off[:n])
	for i := range batch {
		r := int(batch[i].To)
		idx[pos[r]] = int32(i)
		pos[r]++
	}
}

// validateSenders validates every sender set into the reusable allow bitset
// before anything is delivered: an illegal window must leave the
// configuration untouched. Shared by the serial message path and the
// columnar kernel. Adversaries commonly hand many receivers the same
// backing slice (the scheduler scratch-sharing pattern), so a set whose
// identity matches the previously validated one copies that row instead of
// re-scanning; a shared invalid set still errors at its first user with
// that user's index, identically on both paths.
func (s *System) validateSenders(senders [][]ProcID) error {
	for i := range s.allowAll {
		s.allowAll[i] = true
	}
	if senders == nil {
		return nil
	}
	var lastSet *ProcID
	lastLen, lastRow := -1, -1
	for i, set := range senders {
		if set == nil {
			continue // nil means all senders
		}
		s.allowAll[i] = false
		row := s.allowedRow(i)
		if lastRow >= 0 && len(set) == lastLen && &set[0] == lastSet {
			copy(row, s.allowedRow(lastRow))
			continue
		}
		clear(row)
		distinct := 0
		for _, p := range set {
			if err := s.checkProc(p); err != nil {
				return err
			}
			w, bit := int(p)>>6, uint64(1)<<(uint(p)&63)
			if row[w]&bit == 0 {
				row[w] |= bit
				distinct++
			}
		}
		if distinct < s.n-s.t {
			return fmt.Errorf("%w: sender set for processor %d has %d distinct senders < n-t=%d",
				ErrBadWindow, i, distinct, s.n-s.t)
		}
		lastSet, lastLen, lastRow = &set[0], len(set), i
	}
	return nil
}

// reclaimBatch hands the completed window's payloads back to senders that
// pool them (PayloadReclaimer). Every batch message is dead at this point —
// delivered or dropped — so its payload box can be reused. The batch is
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
		if m.From == lastFrom && m.Payload == last {
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
	for _, p := range resets {
		s.reset(p)
	}
	return nil
}

// ApplyWindow runs one full acceptable window described by w.
func (s *System) ApplyWindow(w Window) error {
	batch := s.WindowSend()
	if err := s.WindowDeliver(batch, w.Senders); err != nil {
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
	if err := s.WindowDeliver(batch, w.Senders); err != nil {
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
