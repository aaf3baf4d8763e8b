package sim

import (
	"fmt"
	"math/bits"
)

// This file implements the window core: one body per phase of an acceptable
// window — validate the sender sets, deliver messages, tally columns
// (columnar.go), run sending steps — each written over a range [lo, hi) of
// processors, plus the one merge that folds range scratch back into the
// System. See DESIGN.md §2.
//
// The worker count decides only who walks the ranges. SetShardWorkers(k <= 1)
// walks the whole System as one range [0, n) inline on the caller: no
// goroutine, no pool, no recover. k >= 2 walks the fixed shard partition
// through a persistent worker pool (shardpool.go). Observable behavior is
// byte-identical either way, by one discipline: the partition is a pure
// function of n alone (never GOMAXPROCS or the worker count), each range
// writes only its own scratch plus per-processor state no other range
// touches, and range outputs — steps, decisions, violations, buffered trace
// events, sent messages — merge in ascending range order.

// shardMaxShards bounds the shard count: enough shards that work-stealing
// balances uneven receivers, few enough that per-shard scratch stays cheap,
// and — because the partition depends only on n — identical results at
// every worker count.
const shardMaxShards = 64

// shardCountFor returns the number of receiver shards for n processors: a
// pure function of n, never of the worker count.
func shardCountFor(n int) int {
	if n < shardMaxShards {
		return n
	}
	return shardMaxShards
}

// windowShard is one range's private scratch: the processors it owns and
// everything its phase bodies produce for the merge.
type windowShard struct {
	lo, hi int // receiver (delivery) or sender (send) range [lo, hi)

	steps     int64       // local step count, summed into System.steps
	err       error       // first validation error (ascending receiver order)
	violation error       // first write-once violation (ascending receiver order)
	decided   []ProcID    // processors that newly decided in this range
	events    []Event     // buffered trace events, in emission order
	sendMsgs  []Message   // a shard's sent messages (the inline range stores its own)
	tally     WindowTally // phaseTally scratch (columnar.go)

	panicked bool // a pool-run body panicked; panicVal re-raised at merge
	panicVal any
}

// SetShardWorkers sets how many goroutines walk the window's ranges. k <= 1
// walks them inline on the caller; k >= 2 runs window validation, the sending
// steps and per-receiver delivery or tallying across k goroutines (k-1 pool
// workers plus the caller), which is why Process's Send and Deliver may touch
// only their own processor's state. Observable behavior is byte-identical at
// every setting; only wall-clock changes. The setting survives Recycle, so a
// pooled trial engine configures it once per acquisition.
func (s *System) SetShardWorkers(k int) {
	if k < 1 {
		k = 1
	}
	if k == s.shardWorkers {
		return
	}
	s.shardWorkers = k
	if s.shardPool != nil {
		s.shardCleanup.Stop()
		s.shardPool.stop()
		s.shardPool = nil
	}
}

// ranges rewinds and returns the range scratch the coming phases write: the
// whole System as one range, or, when the caller's bodies may run
// concurrently and workers are configured, the shard partition. The pool and
// the per-shard scratch are built on the first such call, so a System that
// never asks for workers pays for neither.
func (s *System) ranges(concurrent bool) []windowShard {
	rs := s.whole[:]
	rs[0].lo, rs[0].hi = 0, s.n
	if concurrent && s.shardWorkers > 1 {
		if s.shardPool == nil {
			s.shardPool = newShardPool(s.shardWorkers - 1)
			s.shardCleanup = s.shardPool.installCleanup(s)
		}
		if len(s.shards) == 0 {
			c := shardCountFor(s.n)
			s.shards = make([]windowShard, c)
			for b := range s.shards {
				s.shards[b].lo = b * s.n / c
				s.shards[b].hi = (b + 1) * s.n / c
			}
		}
		rs = s.shards
	}
	for i := range rs {
		sh := &rs[i]
		sh.steps = 0
		sh.err = nil
		sh.violation = nil
		sh.decided = sh.decided[:0]
		sh.events = sh.events[:0]
		sh.sendMsgs = sh.sendMsgs[:0]
		sh.panicked = false
		sh.panicVal = nil
	}
	return rs
}

// phaseBody runs one phase over one range.
func (s *System) phaseBody(phase shardPhase, sh *windowShard) {
	switch phase {
	case phaseValidate:
		s.validateRange(sh)
	case phaseDeliver:
		s.deliverRange(sh)
	case phaseSend:
		s.sendRange(sh)
	case phaseTally:
		s.tallyRange(sh)
	}
}

// shardRun is the pool's entry into phaseBody. It captures a panic into the
// shard's scratch instead of unwinding the worker: the merge re-raises the
// first panic in ascending shard order, so the trial-level panic isolation
// of the sweep pipeline (and its poisoned-engine abandonment) sees a normal
// panicking System.
func (s *System) shardRun(phase shardPhase, i int) {
	sh := &s.shards[i]
	defer func() {
		if r := recover(); r != nil {
			sh.panicked, sh.panicVal = true, r
		}
	}()
	s.phaseBody(phase, sh)
}

// runPhase runs a sending or delivering phase over rs and merges the result.
// A single range is walked by the caller with no recover, so a panicking
// process unwinds with its own stack; the deferred merge still records what
// preceded the panic, as it does for the pool.
func (s *System) runPhase(phase shardPhase, rs []windowShard) {
	if len(rs) == 1 {
		defer s.mergeRanges(rs)
		s.phaseBody(phase, &rs[0])
		return
	}
	s.shardPool.run(s, phase, len(rs))
	s.mergeRanges(rs)
}

// mergeRanges folds range scratch into the System in ascending range order,
// so the concatenated outputs equal one walk over [0, n) byte for byte. The
// messages a shard sent enter the buffer here. A range that panicked stops
// the merge: what it and the ranges before it did up to the panic is
// recorded, and the decisions later ranges booked are withdrawn, so the
// System's accounts read as after a single walk that stopped there. (The
// later ranges' processes did run; the engine is abandoned either way.)
func (s *System) mergeRanges(rs []windowShard) {
	decided := false
	for i := range rs {
		sh := &rs[i]
		s.steps += sh.steps
		for j := range sh.sendMsgs {
			s.store(sh.sendMsgs[j])
		}
		decided = decided || len(sh.decided) > 0
		if sh.violation != nil && s.violation == nil {
			s.violation = sh.violation
		}
		for _, ev := range sh.events {
			s.emit(ev)
		}
		if sh.panicked {
			if decided && s.firstDecision < 0 {
				s.firstDecision = s.windows
			}
			for _, later := range rs[i+1:] {
				for _, id := range later.decided {
					s.decidedOK[id], s.decidedVal[id], s.decidedWindow[id] = false, 0, 0
				}
			}
			panic(sh.panicVal)
		}
	}
	if decided && s.firstDecision < 0 {
		s.firstDecision = s.windows
	}
}

// validateSenders validates the window's sender sets, in whichever form it
// carries them, into the allow bitset before anything is delivered: an
// illegal window must leave the configuration untouched. Each range reports
// its first error; the first in ascending range order is the one a single
// scan would have hit.
func (s *System) validateSenders(rs []windowShard, w Window) error {
	switch {
	case w.Senders != nil && w.SenderRows != nil:
		return fmt.Errorf("%w: sender sets given both as lists and as rows", ErrBadWindow)
	case w.SenderRows != nil:
		if len(w.SenderRows) != len(s.allowBits) {
			return fmt.Errorf("%w: got %d sender row words for n=%d, want %d",
				ErrBadWindow, len(w.SenderRows), s.n, len(s.allowBits))
		}
	case w.Senders != nil:
		if len(w.Senders) != s.n {
			return fmt.Errorf("%w: got %d sender sets for n=%d", ErrBadWindow, len(w.Senders), s.n)
		}
	default:
		for i := range s.allowAll {
			s.allowAll[i] = true
		}
		return nil
	}
	s.phaseSenders, s.phaseRows = w.Senders, w.SenderRows
	if len(rs) == 1 {
		s.validateRange(&rs[0])
	} else {
		s.shardPool.run(s, phaseValidate, len(rs))
	}
	s.phaseSenders, s.phaseRows = nil, nil
	for i := range rs {
		if rs[i].panicked {
			panic(rs[i].panicVal)
		}
		if rs[i].err != nil {
			return rs[i].err
		}
	}
	return nil
}

// validateRange validates the sender sets of the range's receivers into
// their rows of the allow bitset. Writes touch only this range's receivers.
func (s *System) validateRange(sh *windowShard) {
	if s.phaseRows != nil {
		s.validateRows(sh)
	} else {
		s.validateLists(sh)
	}
}

// validateRows checks a row plan, one pass per receiver: no bit at n or
// above (reported as the sender it names, as a listed one would be), then at
// least n-t bits. The System's own rows are checked where the planner filled
// them; foreign ones are copied in first. A row is never "all senders" by
// omission, so allowAll is off throughout.
func (s *System) validateRows(sh *windowShard) {
	rows, words := s.phaseRows, s.allowWords
	own := &rows[0] == &s.allowBits[0]
	var tail uint64 // the last word's bits at n and above
	if s.n&63 != 0 {
		tail = ^uint64(0) << (uint(s.n) & 63)
	}
	for i := sh.lo; i < sh.hi; i++ {
		s.allowAll[i] = false
		row := s.allowedRow(i)
		if !own {
			copy(row, rows[i*words:(i+1)*words])
		}
		if stray := row[words-1] & tail; stray != 0 {
			sh.err = s.checkProc(ProcID((words-1)<<6 | bits.TrailingZeros64(stray)))
			return
		}
		count := 0
		for _, word := range row {
			count += bits.OnesCount64(word)
		}
		if count < s.n-s.t {
			sh.err = s.tooFewSenders(i, count)
			return
		}
	}
}

// tooFewSenders is the error for receiver i admitting only distinct senders.
func (s *System) tooFewSenders(i, distinct int) error {
	return fmt.Errorf("%w: sender set for processor %d has %d distinct senders < n-t=%d",
		ErrBadWindow, i, distinct, s.n-s.t)
}

// validateLists turns listed sender sets into rows; a nil set means all
// senders. Adversaries commonly hand many receivers the same backing slice
// (the scheduler scratch-sharing pattern), so a set whose identity matches
// the previously validated one copies that row instead of re-scanning; a
// shared invalid set still errors at its first user, with that user's index.
func (s *System) validateLists(sh *windowShard) {
	senders := s.phaseSenders
	var lastSet *ProcID
	lastLen, lastRow := -1, -1
	for i := sh.lo; i < sh.hi; i++ {
		set := senders[i]
		s.allowAll[i] = set == nil
		if set == nil {
			continue
		}
		row := s.allowedRow(i)
		if lastRow >= 0 && len(set) == lastLen && &set[0] == lastSet {
			copy(row, s.allowedRow(lastRow))
			continue
		}
		clear(row)
		distinct := 0
		for _, p := range set {
			if err := s.checkProc(p); err != nil {
				sh.err = err
				return
			}
			w, bit := int(p)>>6, uint64(1)<<(uint(p)&63)
			if row[w]&bit == 0 {
				row[w] |= bit
				distinct++
			}
		}
		if distinct < s.n-s.t {
			sh.err = s.tooFewSenders(i, distinct)
			return
		}
		lastSet, lastLen, lastRow = &set[0], len(set), i
	}
}

// deliverRange delivers the window's messages to the range's receivers, in
// the (receiver, sender, ID) order orderIdx/orderOff hold. All writes are
// range-local or per-receiver (chainDepth, decided*, the process, its rng);
// the buffer is only read, so concurrent ranges never conflict. The stored
// copy is what gets delivered: a message an adversary consumed while
// planning (legal, if eccentric), or a hand-built entry that was never
// buffered, is skipped.
func (s *System) deliverRange(sh *windowShard) {
	batch := s.phaseBatch
	idx, off := s.orderIdx, s.orderOff
	for r := sh.lo; r < sh.hi; r++ {
		if s.crashed[r] {
			continue
		}
		allowAll := s.allowAll[r]
		var row []uint64
		if !allowAll {
			row = s.allowedRow(r)
		}
		for _, j := range idx[off[r]:off[r+1]] {
			m := &batch[j]
			if !allowAll {
				from := int(m.From)
				if from < 0 || from >= s.n {
					continue
				}
				if row[from>>6]&(uint64(1)<<(uint(from)&63)) == 0 {
					continue
				}
			}
			if stored := s.buffer.cell(m.ID); stored != nil {
				s.deliverMsg(sh, *stored)
			}
		}
	}
}

// deliverMsg executes a receiving step for message m, with every effect that
// is not per-receiver routed into range scratch for the ordered merge.
func (s *System) deliverMsg(sh *windowShard, m Message) {
	sh.steps++
	if s.chainDepth[m.To] < m.Depth {
		s.chainDepth[m.To] = m.Depth
	}
	s.procs[m.To].Deliver(m, s.rngs[m.To])
	if s.OnEvent != nil {
		sh.events = append(sh.events, Event{Kind: EvDeliver, Proc: m.To, Msg: m})
	}
	s.recordOutputs(sh, m.To)
}

// recordOutputs refreshes decision bookkeeping for processor id and enforces
// the write-once contract. decidedVal/decidedOK/decidedWindow are
// per-processor and written directly; the violation and the first-decision
// flag wait in range scratch for the merge.
func (s *System) recordOutputs(sh *windowShard, id ProcID) {
	v, ok := s.procs[id].Output()
	if !ok {
		if s.decidedOK[id] && sh.violation == nil {
			sh.violation = fmt.Errorf("%w: processor %d un-decided", ErrOutputRewritten, id)
		}
		return
	}
	if s.decidedOK[id] {
		if v != s.decidedVal[id] && sh.violation == nil {
			sh.violation = fmt.Errorf("%w: processor %d changed %d -> %d", ErrOutputRewritten, id, s.decidedVal[id], v)
		}
		return
	}
	s.decidedOK[id] = true
	s.decidedVal[id] = v
	s.decidedWindow[id] = s.windows
	sh.decided = append(sh.decided, id)
	if s.OnEvent != nil {
		sh.events = append(sh.events, Event{Kind: EvDecide, Proc: id, Value: v})
	}
}

// sendRange runs the sending steps of the range's live senders. The range
// the caller walks inline (whole) stores each accepted message straight into
// the buffer; a shard collects them into range scratch for the merge, which
// stores them in range order. Either way IDs, batch order and EvSend events
// are those of one walk over the senders in ascending order. chainDepth is
// read-only during the send phase (only delivery mutates it), and each sender
// reads just its own entry.
func (s *System) sendRange(sh *windowShard) {
	direct := sh == &s.whole[0]
	for i := sh.lo; i < sh.hi; i++ {
		if s.crashed[i] {
			continue
		}
		sh.steps++
		out := s.procs[i].Send()
		depth := s.chainDepth[i] + 1
		for _, m := range out {
			m.From = ProcID(i) // channels are authenticated: the sender cannot forge From
			if m.To < 0 || int(m.To) >= s.n {
				continue // drop messages to nonexistent processors
			}
			if s.crashed[m.To] {
				continue // a crashed processor never receives anything
			}
			m.Depth = depth
			if direct {
				s.store(m)
			} else {
				sh.sendMsgs = append(sh.sendMsgs, m)
			}
		}
	}
}

// store buffers one sent message under a fresh ID and emits its EvSend.
func (s *System) store(m Message) {
	stored := s.buffer.Add(m)
	if s.OnEvent != nil {
		s.emit(Event{Kind: EvSend, Proc: stored.From, Msg: stored})
	}
}
