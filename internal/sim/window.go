package sim

import (
	"fmt"
	"sync/atomic"
)

// WindowSend executes the sending steps that open an acceptable window: all
// non-crashed processors take a sending step. It returns the just-sent batch.
//
// Each send is stored once, in the buffer's ring — a broadcast (To All) as
// one record, not one message per receiver — and the batch is the span of
// ring cells the sends filled: the ring is first made linear (its live cells
// moved to cell 0, a no-op after a drained window), so the new cells sit
// contiguously in ID order behind whatever was buffered before. The slice is
// therefore the buffer itself, not a copy: taking the last buffered copy of
// a cell (Buffer.Take) empties its batch entry but for its ID, the window's
// drain zeroes the cells, and the next WindowSend refills them. Adversaries
// may read the batch, and take or drop buffered messages, while planning the
// window, but must not add messages or retain the batch past the window.
//
// In the strongly adaptive model of Sections 2-4 there are no crashes, so
// all n processors send; the crash-model reuse of windows in Section 5
// (Definition 19) simply has crashed processors contribute nothing.
func (s *System) WindowSend() []Message {
	s.buffer.linearize()
	s.batchAt, s.batchFrom = s.buffer.cells, s.buffer.nextID+1
	s.runPhase(phaseSend, s.ranges())
	s.batch = s.buffer.ring[s.batchAt:s.buffer.cells:s.buffer.cells]
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
// Delivery order is (receiver, sender, ID): bucketByReceiver's O(batch)
// counting sort of the unicast entries, merged per receiver with the
// broadcast records, which reach every receiver.
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
	s.drainWindow()
	s.batch = nil
	return nil
}

// bucketByReceiver computes, into orderOff/orderIdx, the batch indices of
// the unicast entries grouped by receiver in stable batch order:
// orderIdx[orderOff[r]:orderOff[r+1]] are the positions addressed to
// receiver r. orderAll lists the broadcast records' positions, which every
// receiver shares. The batch is sender-major with ascending IDs and every
// unicast To is in range (sendRange drops the rest), so merging a receiver's
// bucket with orderAll by position yields the (To, From, ID) order in
// O(batch) plus the deliveries.
func (s *System) bucketByReceiver(batch []Message) {
	idx, off := s.orderFor(batch)
	all := s.orderAll[:0]
	for i := range batch {
		if to := batch[i].To; to == All {
			all = append(all, int32(i))
		} else {
			off[int(to)+1]++
		}
	}
	s.orderAll = all
	if len(all) == len(batch) {
		return // no unicast: every bucket is empty
	}
	for r := 0; r < s.n; r++ {
		off[r+1] += off[r]
	}
	pos := s.orderPos[:s.n]
	copy(pos, off[:s.n])
	for i := range batch {
		if r := int(batch[i].To); r != int(All) {
			idx[pos[r]] = int32(i)
			pos[r]++
		}
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
// common case — nothing older than the batch is still buffered, which window
// mode guarantees — drains the whole buffer in one sweep, whatever an
// adversary took or dropped while planning. Step-mode residue in front of
// the batch stays: only the batch's cells are dropped.
func (s *System) drainWindow() {
	if s.buffer.idBase >= s.batchFrom {
		s.buffer.DrainAll()
		return
	}
	s.buffer.dropFrom(s.batchFrom)
}

// reclaimBatch hands the completed window's payloads back to senders that
// pool them (PayloadReclaimer). Every batch message is dead at this point —
// delivered or about to be dropped — so its payload box can be reused. A
// cell a planner emptied has no payload left: its messages went elsewhere,
// so nothing is reclaimed for it. A broadcast record is one entry; the
// dedup of consecutive equal payloads from one sender reclaims once the box
// a sender shares across the per-receiver copies of a scoped broadcast.
// The dedup compare runs before the (pricier) interface assertion: lastFrom
// is only ever a sender already proven to be a reclaimer, whose contract
// requires comparable payloads, so the copies of a broadcast cost one
// assertion, not one each.
func (s *System) reclaimBatch(batch []Message) {
	var last any
	lastFrom := ProcID(-1)
	for i := range batch {
		m := &batch[i]
		if m.Payload == nil || (m.From == lastFrom && m.Payload == last) {
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

// WindowResets executes the at most t resetting steps closing a window. On a
// System declared never-resetting (SetNeverResets) the budget is zero.
func (s *System) WindowResets(resets []ProcID) error {
	if s.neverResets && len(resets) > 0 {
		return fmt.Errorf("%w: resets %v on a plan declared never-resetting", ErrBadWindow, resets)
	}
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
	_, err := s.applyWindow(adv)
	return err
}

// applyWindow is ApplyWindowWith reporting whether the window was quiescent:
// on a System declared never-resetting, a message-path window whose only
// steps were its n sending steps and which sent nothing, after which the
// buffer is empty and no processor has ever crashed or been corrupted. No
// process then took a receiving or resetting step, so by the Process
// contract every next Send returns nothing again and no state moves: each
// later window is this one. The columnar path never reports one.
func (s *System) applyWindow(adv WindowAdversary) (quiet bool, err error) {
	if cp, ok := s.columnarPlanner(adv); ok {
		return false, s.applyWindowColumnar(cp)
	}
	steps := s.steps
	batch := s.WindowSend()
	w := adv.PlanDelivery(s, batch)
	if err := s.WindowDeliver(w.SenderRows); err != nil {
		return false, err
	}
	if err := s.closeWindow(w.Resets); err != nil {
		return false, err
	}
	return s.neverResets && len(batch) == 0 && s.steps == steps+int64(s.n) &&
		s.buffer.live == 0 && s.totalCrashes == 0 && s.totalCorrupt == 0, nil
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
//
// On a System declared never-resetting (SetNeverResets), a quiescent window
// (applyWindow) ends the run: every window after it to the budget would be
// the same n empty sending steps, so they are counted, not planned or
// walked, and the summary, the final configuration, Steps and the event
// feed are those of the full walk. With a nil expired and no OnEvent
// observer the window count jumps to the budget. Otherwise the skipped
// windows are walked as counts only: expired is still polled before each,
// so a watchdog armed for window w stops the run at w, and each emits its
// EvWindow. Skipped windows take no simulated work, so a wall-clock
// deadline that had not elapsed at the quiescent window fires during the
// skip only if it runs out within the few nanoseconds each costs.
func (s *System) RunWindowsUntil(adv WindowAdversary, maxWindows int, expired func(windows int) bool) (res RunResult, stalled bool, err error) {
	for s.windows < maxWindows && !s.AllDecided() {
		if expired != nil && expired(s.windows) {
			return s.Result(), true, s.violation
		}
		quiet, err := s.applyWindow(adv)
		if err != nil {
			return s.Result(), false, err
		}
		if quiet && s.skipQuiet(maxWindows, expired) {
			return s.Result(), true, s.violation
		}
	}
	return s.Result(), false, s.violation
}

// skipQuiet counts off the windows after a quiescent one, up to maxWindows,
// as RunWindowsUntil describes, and reports whether expired stopped it.
func (s *System) skipQuiet(maxWindows int, expired func(windows int) bool) (stalled bool) {
	start := s.windows
	if s.quietFrom < 0 {
		s.quietFrom = start
	}
	if expired == nil && s.OnEvent == nil {
		s.windows = maxWindows
	}
	for s.windows < maxWindows {
		if expired != nil && expired(s.windows) {
			stalled = true
			break
		}
		s.windows++
		s.emit(Event{Kind: EvWindow})
	}
	skipped := s.windows - start
	s.steps += int64(skipped) * int64(s.n) // no crash: every processor took its sending step
	skippedWindows.Add(int64(skipped))
	return stalled
}

// Quiescent reports whether the run went quiescent and skipped the rest of
// its budget (RunWindowsUntil), and from, the number of windows completed
// when it did: Windows() - from of them were skipped. Recycle clears it.
func (s *System) Quiescent() (from int, ok bool) { return s.quietFrom, s.quietFrom >= 0 }

// SetNeverResets declares that no window of the runs to come resets,
// crashes or corrupts a processor, which lets RunWindowsUntil end a run at
// its budget once it goes quiescent. The declaration is checked, not
// trusted: WindowResets then refuses any reset (ErrBadWindow), and
// StepReset, StepCrash and Corrupt refuse outright (ErrFaultBudget), so a
// plan that does fault fails its trial instead of skipping to wrong
// records. The registry's trial engines declare it from their descriptors;
// a System from New starts without it, and the setting survives Recycle.
func (s *System) SetNeverResets(on bool) { s.neverResets = on }

// skippedWindows counts, process-wide, the windows every System has skipped
// as quiescent.
var skippedWindows atomic.Int64

// SkippedWindows returns how many windows, process-wide, runs have skipped as
// quiescent (RunWindowsUntil). It is monotone: callers diff two readings.
func SkippedWindows() int64 { return skippedWindows.Load() }

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
