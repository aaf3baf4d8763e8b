package sim

import (
	"fmt"
	"math/bits"
)

// This file implements the window core: one body per phase of an acceptable
// window — validate the sender rows, deliver messages, tally columns
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

// SetShardWorkers sets how many goroutines walk the window's ranges. It is
// the reference and measurement switch that tests, the scaling experiment
// and the benchmark use, not a user knob: no command sets it. k <= 1 walks
// the ranges inline on the caller; k >= 2 runs window validation, the
// sending steps and per-receiver delivery or tallying across k goroutines
// (k-1 pool workers plus the caller), which is why Process's Send and Deliver
// may touch only their own processor's state. Observable behavior is
// byte-identical at every setting; only wall-clock changes. The setting
// survives Recycle, so a pooled trial engine configures it once per
// acquisition.
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

// ranges rewinds and returns the range scratch a window's phases write: the
// shard partition when workers are configured, else the one inline range.
// The pool and the per-shard scratch are built on the first such call, so a
// System that never asks for workers pays for neither.
func (s *System) ranges() []windowShard {
	if s.shardWorkers <= 1 {
		return s.inline()
	}
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
	return rewind(s.shards)
}

// inline rewinds and returns the one range [0, n) the caller walks itself:
// step mode's single steps and the resetting steps use it at every worker
// count.
func (s *System) inline() []windowShard {
	rs := s.whole[:]
	rs[0].lo, rs[0].hi = 0, s.n
	return rewind(rs)
}

// rewind clears the range scratch of rs for a new phase.
func rewind(rs []windowShard) []windowShard {
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
		s.validateRows(sh)
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

// validateSenders validates the window's sender rows into the allow bitset
// before anything is delivered: an illegal window must leave the
// configuration untouched. nil rows set allowAll instead. Each range reports
// its first error; the first in ascending range order is the one a single
// scan would have hit.
func (s *System) validateSenders(rs []windowShard, rows []uint64) error {
	s.allowAll = rows == nil
	if s.allowAll {
		return nil
	}
	if len(rows) != len(s.allowBits) {
		return fmt.Errorf("%w: got %d sender row words for n=%d, want %d",
			ErrBadWindow, len(rows), s.n, len(s.allowBits))
	}
	s.phaseRows = rows
	if len(rs) == 1 {
		s.validateRows(&rs[0])
	} else {
		s.shardPool.run(s, phaseValidate, len(rs))
	}
	s.phaseRows = nil
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

// validateRows checks the range's receivers' rows, one pass per receiver: no
// bit at n or above (reported as ErrNoSuchProc for the sender it names), then
// at least n-t bits, that is distinct senders. The System's own rows are
// checked where the planner filled them; foreign ones are copied in first.
// Writes touch only this range's receivers.
func (s *System) validateRows(sh *windowShard) {
	rows, words := s.phaseRows, s.allowWords
	own := &rows[0] == &s.allowBits[0]
	var tail uint64 // the last word's bits at n and above
	if s.n&63 != 0 {
		tail = ^uint64(0) << (uint(s.n) & 63)
	}
	for i := sh.lo; i < sh.hi; i++ {
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
			sh.err = fmt.Errorf("%w: sender set for processor %d has %d distinct senders < n-t=%d",
				ErrBadWindow, i, count, s.n-s.t)
			return
		}
	}
}

// deliverRange delivers the window's messages to the range's receivers, in
// the (receiver, sender, ID) order orderIdx/orderOff hold. All writes are
// range-local or per-receiver (chainDepth, decided*, the process, its rng);
// the buffer is only read, so concurrent ranges never conflict. The stored
// copy is what gets delivered: a message an adversary took or dropped while
// planning (legal, if eccentric) is skipped.
func (s *System) deliverRange(sh *windowShard) {
	batch := s.phaseBatch
	idx, off := s.orderIdx, s.orderOff
	for r := sh.lo; r < sh.hi; r++ {
		if s.crashed[r] {
			continue
		}
		var row []uint64
		if !s.allowAll {
			row = s.allowedRow(r)
		}
		for _, j := range idx[off[r]:off[r+1]] {
			m := &batch[j]
			if row != nil && row[m.From>>6]&(uint64(1)<<(uint(m.From)&63)) == 0 {
				continue
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
