package sim

import "fmt"

// This file implements the sharded window core: WindowDeliver's validation
// and per-receiver delivery, and WindowSend's per-sender collection, run
// across a persistent worker pool (shardpool.go) with observable behavior
// byte-identical to the serial facade in window.go. See DESIGN.md §2b.
//
// The determinism discipline mirrors parallel.Reduce: receivers are
// partitioned into contiguous shards that are a pure function of n alone
// (never GOMAXPROCS or the worker count), each shard writes only its own
// scratch plus per-receiver state no other shard touches, and shard outputs
// — steps, decisions, violations, buffered trace events, send batches —
// merge in ascending shard order. The worker count decides only which
// goroutine executes a shard, so every setting (including 1) produces the
// same bytes.
//
// The sharded delivery path engages only for the System's own just-sent
// WindowSend batch (ownBatch, window.go), the same precondition under which
// the serial path orders by bucketByReceiver: both paths share that one
// counting sort and differ only in who walks the buckets. Hand-built batches
// (tests, exotic drivers) take the serial path's comparison sort.

// shardMaxShards bounds the shard count the way reduceMaxBlocks bounds
// parallel.Reduce: enough shards that work-stealing balances uneven
// receivers, few enough that per-shard scratch stays cheap, and — because
// the partition depends only on n — identical results at every worker
// count.
const shardMaxShards = 64

// shardCountFor returns the number of receiver shards for n processors: a
// pure function of n, never of the worker count.
func shardCountFor(n int) int {
	if n < shardMaxShards {
		return n
	}
	return shardMaxShards
}

// windowShard is one shard's private scratch: the receiver range it owns
// and everything its phase bodies produce for the serial merge.
type windowShard struct {
	lo, hi int // receiver (delivery) or sender (send) range [lo, hi)

	steps     int64   // local step count, summed into System.steps
	err       error   // first validation error (ascending receiver order)
	violation error   // first write-once violation (ascending receiver order)
	decided   bool    // some processor newly decided in this shard
	events    []Event // buffered trace events, in serial emission order
	sendMsgs  []Message
	tally     WindowTally // phaseTally scratch (columnar.go)

	panicked bool // a phase body panicked; panicVal re-raised at merge
	panicVal any
}

// SetShardWorkers sets the worker count of the sharded window core.
// k <= 1 selects the serial facade (the historical single-core pipeline);
// k >= 2 runs window validation, per-receiver delivery, and — when enabled
// via SetParallelSend — per-sender collection across k goroutines (k-1 pool
// workers plus the calling goroutine). Observable behavior is byte-identical
// at every setting; only wall-clock changes. The setting survives Recycle,
// so a pooled trial engine configures it once per acquisition.
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

// ShardWorkers returns the configured worker count (1 = serial facade).
func (s *System) ShardWorkers() int {
	if s.shardWorkers < 1 {
		return 1
	}
	return s.shardWorkers
}

// SetParallelSend declares whether the algorithm's Send is safe to invoke
// on distinct processors concurrently (no shared mutable state), letting
// WindowSend shard its per-sender loop too. Ignored on the serial facade.
// The registry sets this from the algorithm descriptor's ParallelSend flag.
func (s *System) SetParallelSend(on bool) { s.parallelSend = on }

// ensureShardPool lazily creates the worker pool and the per-shard scratch
// on the first sharded window, so serial Systems never pay for either.
func (s *System) ensureShardPool() *shardPool {
	if s.shardPool == nil {
		p := newShardPool(s.shardWorkers - 1)
		s.shardPool = p
		s.shardCleanup = p.installCleanup(s)
	}
	if len(s.shards) == 0 {
		c := shardCountFor(s.n)
		s.shards = make([]windowShard, c)
		for b := range s.shards {
			s.shards[b].lo = b * s.n / c
			s.shards[b].hi = (b + 1) * s.n / c
		}
	}
	return s.shardPool
}

// resetShards rewinds every shard's merge outputs for a new phase group.
func (s *System) resetShards() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.steps = 0
		sh.err = nil
		sh.violation = nil
		sh.decided = false
		sh.events = sh.events[:0]
		sh.panicked = false
		sh.panicVal = nil
	}
}

// shardRun executes one shard of the current phase, capturing a panic into
// the shard's scratch instead of unwinding the worker: the serial merge
// re-raises the first panic in ascending shard order, so the trial-level
// panic isolation of the sweep pipeline (and its poisoned-engine
// abandonment) sees a normal panicking System.
func (s *System) shardRun(phase shardPhase, i int) {
	sh := &s.shards[i]
	defer func() {
		if r := recover(); r != nil {
			sh.panicked, sh.panicVal = true, r
		}
	}()
	switch phase {
	case phaseValidate:
		s.shardValidate(sh)
	case phaseDeliver:
		s.shardDeliverRange(sh)
	case phaseSend:
		s.shardSendRange(sh)
	case phaseTally:
		s.shardTallyRange(sh)
	}
}

// windowDeliverSharded is the sharded body of WindowDeliver. The caller has
// already checked len(senders); batch passed ownBatch.
func (s *System) windowDeliverSharded(batch []Message, senders [][]ProcID) error {
	pool := s.ensureShardPool()
	s.resetShards()

	// Phase 1 — validation. Each shard validates its own receivers' sender
	// sets into the shared bitset (disjoint per-receiver rows), recording
	// its first error; merging ascending yields the error the serial scan
	// would have hit first, before anything is delivered.
	for i := range s.allowAll {
		s.allowAll[i] = true
	}
	if senders != nil {
		s.shardSenders = senders
		pool.run(s, phaseValidate, len(s.shards))
		s.shardSenders = nil
		for i := range s.shards {
			sh := &s.shards[i]
			if sh.panicked {
				panic(sh.panicVal)
			}
			if sh.err != nil {
				return sh.err
			}
		}
	}

	// Phase 2 — serial receiver-major ordering, the serial path's own
	// ordering step.
	s.bucketByReceiver(batch)

	// Phase 3 — parallel delivery, each shard delivering to its own
	// contiguous receiver range.
	pool.run(s, phaseDeliver, len(s.shards))

	// Phase 4 — serial merge in ascending shard order: concatenated shard
	// outputs equal the serial receiver-order pipeline byte for byte.
	anyDecided := false
	for i := range s.shards {
		sh := &s.shards[i]
		s.steps += sh.steps
		if sh.decided {
			anyDecided = true
		}
		if sh.violation != nil && s.violation == nil {
			s.violation = sh.violation
		}
		for _, ev := range sh.events {
			s.emit(ev)
		}
		if sh.panicked {
			// Decisions recorded before the panic (earlier shards and this
			// shard's pre-panic receivers) are merged, like the serial path
			// at its panic point; later shards are poisoned state the
			// abandoned engine never exposes.
			if anyDecided && s.firstDecision < 0 {
				s.firstDecision = s.windows
			}
			panic(sh.panicVal)
		}
	}
	if anyDecided && s.firstDecision < 0 {
		s.firstDecision = s.windows
	}

	// Phase 5 — serial drain and reclaim, same as the serial path.
	s.drainWindow(batch)
	s.reclaimBatch(batch)
	return nil
}

// shardValidate validates the sender sets of the shard's receivers into the
// shared allow bitset. Writes touch only this shard's receivers.
func (s *System) shardValidate(sh *windowShard) {
	senders := s.shardSenders
	for i := sh.lo; i < sh.hi; i++ {
		set := senders[i]
		if set == nil {
			continue // nil means all senders
		}
		s.allowAll[i] = false
		row := s.allowedRow(i)
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
			sh.err = fmt.Errorf("%w: sender set for processor %d has %d distinct senders < n-t=%d",
				ErrBadWindow, i, distinct, s.n-s.t)
			return
		}
	}
}

// shardDeliverRange delivers the window's messages to the shard's receiver
// range, in the bucketed serial order. All writes are shard-local or
// per-receiver (chainDepth, decided*, the process, its rng); the buffer is
// only read (Get), never mutated, so concurrent shards never conflict.
func (s *System) shardDeliverRange(sh *windowShard) {
	batch := s.batchScratch
	idx := s.orderIdx[:len(batch)]
	off := s.orderOff[:s.n+1]
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
			// Deliver the stored message, like the serial Take — an
			// adversary that consumed a buffered message while planning
			// (legal, if eccentric) makes it undeliverable on both paths.
			stored, ok := s.buffer.Get(m.ID)
			if !ok {
				continue
			}
			s.shardDeliverMsg(sh, stored)
		}
	}
}

// shardDeliverMsg is deliver (system.go) with all window-global effects
// routed into shard scratch for the ordered merge.
func (s *System) shardDeliverMsg(sh *windowShard, m Message) {
	sh.steps++
	if s.chainDepth[m.To] < m.Depth {
		s.chainDepth[m.To] = m.Depth
	}
	s.procs[m.To].Deliver(m, s.rngs[m.To])
	if s.OnEvent != nil {
		sh.events = append(sh.events, Event{Kind: EvDeliver, Proc: m.To, Msg: m})
	}
	s.shardRecordOutputs(sh, m.To)
}

// shardRecordOutputs is recordOutputs with write-once violations and the
// first-decision flag deferred to shard scratch; decidedVal/decidedOK/
// decidedWindow are per-receiver and written directly.
func (s *System) shardRecordOutputs(sh *windowShard, id ProcID) {
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
	sh.decided = true
	if s.OnEvent != nil {
		sh.events = append(sh.events, Event{Kind: EvDecide, Proc: id, Value: v})
	}
}

// drainWindow removes the completed window's batch from the buffer. The
// common case — the buffer holds exactly the batch, a dense ID span, which
// window mode guarantees — drains the whole buffer in one O(arena) sweep;
// anything else (step-mode residue, adversary-injected messages) falls back
// to the serial per-ID Take loop, which preserves non-batch messages.
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

// windowSendSharded is the sharded body of WindowSend: shards collect their
// senders' messages into private scratch in parallel, then a serial merge
// in ascending shard order assigns buffer IDs — so IDs, batch order, and
// EvSend events are byte-identical to the serial sender loop.
func (s *System) windowSendSharded() []Message {
	pool := s.ensureShardPool()
	s.resetShards()
	pool.run(s, phaseSend, len(s.shards))
	batch := s.batchScratch[:0]
	for i := range s.shards {
		sh := &s.shards[i]
		s.steps += sh.steps
		for j := range sh.sendMsgs {
			stored := s.buffer.Add(sh.sendMsgs[j])
			batch = append(batch, stored)
			s.emit(Event{Kind: EvSend, Proc: stored.From, Msg: stored})
		}
		if sh.panicked {
			s.batchScratch = batch
			panic(sh.panicVal)
		}
	}
	s.batchScratch = batch
	return batch
}

// shardSendRange runs the sending steps of the shard's sender range,
// collecting accepted messages into shard scratch. chainDepth is read-only
// during the send phase (only delivery mutates it), and each sender reads
// just its own entry.
func (s *System) shardSendRange(sh *windowShard) {
	msgs := sh.sendMsgs[:0]
	for i := sh.lo; i < sh.hi; i++ {
		if s.crashed[i] {
			continue
		}
		sh.steps++
		out := s.procs[i].Send()
		depth := s.chainDepth[i] + 1
		for _, m := range out {
			m.From = ProcID(i) // channels are authenticated
			if m.To < 0 || int(m.To) >= s.n {
				continue
			}
			if s.crashed[m.To] {
				continue
			}
			m.Depth = depth
			msgs = append(msgs, m)
		}
	}
	sh.sendMsgs = msgs
}
