// Package rbc implements Bracha's asynchronous reliable broadcast primitive
// (PODC 1984), tolerating t < n/3 Byzantine processors.
//
// For each broadcast instance (identified by a Tag: the designated sender
// plus a label), the protocol is:
//
//	sender:   send INIT(v) to all.
//	on INIT(v) from the tag's sender (first one only): send ECHO(v) to all.
//	on ECHO(v) from ceil((n+t+1)/2) distinct processors: send READY(v).
//	on READY(v) from t+1 distinct processors: send READY(v) (if not yet).
//	on READY(v) from 2t+1 distinct processors: accept v.
//
// Guarantees with at most t Byzantine processors: if the sender is honest,
// every honest processor eventually accepts its value (vt); no two honest
// processors accept different values for the same tag (consistency); if any
// honest processor accepts, all honest processors eventually accept
// (totality).
//
// The Engine is a protocol component embedded into a sim.Process: Handle
// consumes incoming messages and reports newly accepted broadcasts; Flush
// drains the outgoing queue into the host's sending step.
//
// Honest traffic is counted without hashing. Members are a bitset over the
// host's ID space, and a member's position (its rank among the members)
// indexes everything else. The instances of the engine's own label live in
// one block per (round, step), a slot per member position for the tag's
// sender, found by a short scan of the live blocks behind a last-hit cache;
// each instance keeps its echo and ready senders per value in a small list
// compared with ==. Only tags a block cannot index — another label, or a
// sender outside the members — fall back to a map.
package rbc

import (
	"fmt"
	"math/bits"
	"slices"

	"asyncagree/internal/sim"
)

// Tag identifies a broadcast instance: the designated sender, a
// caller-chosen label, and optional structured (round, step) coordinates.
// Protocols that advance through unboundedly many rounds put the round in
// the integer fields and keep Label as a constant instance prefix — minting
// a fresh label string per round ("r3s1") works too, but costs a string
// allocation per round, and only the engine's own label is block-indexed.
type Tag struct {
	Sender      sim.ProcID
	Label       string
	Round, Step int
}

// Kind enumerates the three message types.
type Kind int

const (
	// KindInit is the sender's initial message.
	KindInit Kind = iota + 1
	// KindEcho is the first-stage amplification.
	KindEcho
	// KindReady is the second-stage amplification.
	KindReady
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInit:
		return "INIT"
	case KindEcho:
		return "ECHO"
	case KindReady:
		return "READY"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Msg is the wire payload of the reliable broadcast protocol. Value must be
// a comparable type (per-value thresholds compare values with ==).
type Msg struct {
	T     Tag
	Kind  Kind
	Value any
}

// Accepted reports one completed broadcast.
type Accepted struct {
	T     Tag
	Value any
}

// Engine runs all reliable-broadcast instances for one host processor.
//
// An Engine may be scoped to a subset of the system's processors (see
// NewScopedEngine): thresholds are relative to the member count and
// broadcasts go only to members. Scoped engines are how committees run the
// slow protocol internally in the Kapron-style algorithm.
type Engine struct {
	self sim.ProcID
	n, t int

	// members lists the participating processors in the order broadcasts
	// address them; nil means the full system 0..n-1. member is the same set
	// as a bitset over the host's ID space and rank[w] counts the members
	// below word w, so a member's position — its rank, 0..n-1 — is one
	// popcount away; ids maps a position back (nil when position == ID).
	members []sim.ProcID
	member  []uint64
	rank    []int32
	ids     []sim.ProcID

	// home is the label the blocks index: that of the first broadcast the
	// engine makes while no instance is live (homed records that there was
	// one). A host that broadcasts before it handles anything — Agreement
	// starts with its round-1 broadcast — gets its own protocol's traffic
	// block-indexed; an engine that never does runs on spare alone.
	home  string
	homed bool

	// blocks are the live blocks, in no particular order; last is the block
	// the previous lookup hit, and live counts the live instances in blocks.
	// spare holds every instance no block can index, built on first use.
	blocks []*block
	last   *block
	live   int
	spare  map[Tag]*instance

	outbox []sim.Message

	// words sizes one sender bitset: one bit per member position.
	words int

	// Recycling pools (see sim.PayloadReclaimer and DESIGN.md §2a): msgPool
	// holds the heap-boxed *Msg payloads of dead broadcasts, blockPool and
	// instPool the blocks and spare instances released by Forget/Reset, each
	// keeping its per-value sender sets. In step mode msgPool stays empty
	// (nothing is reclaimed) and every broadcast boxes fresh, which is always
	// safe.
	msgPool   []*Msg
	blockPool []*block
	instPool  []*instance

	// acceptBuf backs Handle's zero-or-one-element result slice, so an
	// acceptance does not allocate on the delivery hot path.
	acceptBuf [1]Accepted
}

// block holds the home label's instances of one (round, step): insts[p] is
// the instance whose tag sender sits at member position p.
type block struct {
	round, step int
	live        int // instances in use
	insts       []instance
}

// instance is one broadcast's state. vals lists, per distinct value seen,
// who echoed and who readied it; released entries keep their bitsets
// (cleared) in vals[len:cap] for reuse.
type instance struct {
	live      bool // a block slot in use
	sentEcho  bool
	sentReady bool
	accepted  bool
	vals      []valueSets
}

// valueSets counts the distinct members that echoed (bits[:words]) and
// readied (bits[words:]) one value, by member position.
type valueSets struct {
	value          any
	bits           []uint64
	echoes, readys int
}

// NewEngine returns an Engine for host processor self in a system of n
// processors tolerating t Byzantine faults. It returns an error unless
// 0 <= t and n > 3t.
func NewEngine(self sim.ProcID, n, t int) (*Engine, error) {
	if t < 0 || n <= 3*t {
		return nil, fmt.Errorf("rbc: need n > 3t, got n=%d t=%d", n, t)
	}
	e := &Engine{self: self, n: n, t: t, words: (n + 63) / 64}
	e.member = make([]uint64, e.words)
	for q := 0; q < n; q++ {
		e.member[q>>6] |= 1 << (uint(q) & 63)
	}
	e.rankMembers()
	return e, nil
}

// NewScopedEngine returns an Engine whose broadcast group is the given
// member list (which must contain self), tolerating t Byzantine members.
// It returns an error unless len(members) > 3t and the members are distinct,
// non-negative IDs.
func NewScopedEngine(self sim.ProcID, members []sim.ProcID, t int) (*Engine, error) {
	n := len(members)
	if t < 0 || n <= 3*t {
		return nil, fmt.Errorf("rbc: need |members| > 3t, got %d members, t=%d", n, t)
	}
	ids := slices.Clone(members)
	slices.Sort(ids)
	if ids[0] < 0 {
		return nil, fmt.Errorf("rbc: negative member ID %d", ids[0])
	}
	e := &Engine{
		self:    self,
		n:       n,
		t:       t,
		words:   (n + 63) / 64,
		members: slices.Clone(members),
		member:  make([]uint64, int(ids[n-1])/64+1),
		ids:     ids,
	}
	for _, q := range ids {
		w, bit := int(q)>>6, uint64(1)<<(uint(q)&63)
		if e.member[w]&bit != 0 {
			return nil, fmt.Errorf("rbc: duplicate member ID %d", q)
		}
		e.member[w] |= bit
	}
	e.rankMembers()
	if e.pos(self) < 0 {
		return nil, fmt.Errorf("rbc: self %d not in member list", self)
	}
	return e, nil
}

// rankMembers fills rank from the membership bitset.
func (e *Engine) rankMembers() {
	e.rank = make([]int32, len(e.member))
	below := 0
	for w, word := range e.member {
		e.rank[w] = int32(below)
		below += bits.OnesCount64(word)
	}
}

// pos returns q's member position, or -1 if q is not a member.
func (e *Engine) pos(q sim.ProcID) int {
	w := int(q) >> 6
	if q < 0 || w >= len(e.member) {
		return -1
	}
	bit := uint64(1) << (uint(q) & 63)
	if e.member[w]&bit == 0 {
		return -1
	}
	return int(e.rank[w]) + bits.OnesCount64(e.member[w]&(bit-1))
}

// memberAt returns the member at position p.
func (e *Engine) memberAt(p int) sim.ProcID {
	if e.ids == nil {
		return sim.ProcID(p)
	}
	return e.ids[p]
}

// EchoThreshold returns the echo count required to send READY:
// ceil((n+t+1)/2).
func (e *Engine) EchoThreshold() int { return (e.n + e.t + 2) / 2 }

// ReadyAmplify returns the ready count that triggers READY amplification.
func (e *Engine) ReadyAmplify() int { return e.t + 1 }

// AcceptThreshold returns the ready count required to accept.
func (e *Engine) AcceptThreshold() int { return 2*e.t + 1 }

// inst returns the instance of tag t, opening it if it is not live: a block
// slot for the home label and a member sender, a spare instance otherwise.
func (e *Engine) inst(t Tag) *instance {
	if e.homed && t.Label == e.home {
		if p := e.pos(t.Sender); p >= 0 {
			b := e.block(t.Round, t.Step)
			in := &b.insts[p]
			if !in.live {
				in.live = true
				b.live++
				e.live++
			}
			return in
		}
	}
	in := e.spare[t]
	if in == nil {
		if n := len(e.instPool); n > 0 {
			in = e.instPool[n-1]
			e.instPool = e.instPool[:n-1]
		} else {
			in = new(instance)
		}
		if e.spare == nil {
			e.spare = make(map[Tag]*instance)
		}
		e.spare[t] = in
	}
	return in
}

// block returns the block of (round, step), opening one (a pooled block, if
// any) when none is live.
func (e *Engine) block(round, step int) *block {
	if b := e.last; b != nil && b.round == round && b.step == step {
		return b
	}
	for _, b := range e.blocks {
		if b.round == round && b.step == step {
			e.last = b
			return b
		}
	}
	var b *block
	if k := len(e.blockPool); k > 0 {
		b = e.blockPool[k-1]
		e.blockPool = e.blockPool[:k-1]
	} else {
		b = &block{insts: make([]instance, e.n)}
	}
	b.round, b.step = round, step
	e.blocks = append(e.blocks, b)
	e.last = b
	return b
}

// closeBlock releases the live block at blocks[i] and its remaining
// instances to the pools.
func (e *Engine) closeBlock(i int) {
	b := e.blocks[i]
	for p := range b.insts {
		if b.insts[p].live {
			e.releaseSlot(b, &b.insts[p])
		}
	}
	last := len(e.blocks) - 1
	e.blocks[i] = e.blocks[last]
	e.blocks[last] = nil
	e.blocks = e.blocks[:last]
	if e.last == b {
		e.last = nil
	}
	e.blockPool = append(e.blockPool, b)
}

// releaseSlot frees one live instance of block b.
func (e *Engine) releaseSlot(b *block, in *instance) {
	in.clear()
	b.live--
	e.live--
}

// clear rewinds an instance to unused, keeping its value entries' bitsets.
func (in *instance) clear() {
	for k := range in.vals {
		vs := &in.vals[k]
		clear(vs.bits)
		vs.value, vs.echoes, vs.readys = nil, 0, 0
	}
	in.vals = in.vals[:0]
	in.live, in.sentEcho, in.sentReady, in.accepted = false, false, false, false
}

// sets returns in's sender sets for value v, opening them (reusing a
// released entry's bitsets, if any) when v is new.
func (e *Engine) sets(in *instance, v any) *valueSets {
	for k := range in.vals {
		if in.vals[k].value == v {
			return &in.vals[k]
		}
	}
	k := len(in.vals)
	if k < cap(in.vals) {
		in.vals = in.vals[:k+1]
	} else {
		in.vals = append(in.vals, valueSets{})
	}
	vs := &in.vals[k]
	if vs.bits == nil { // append may leave zero entries past the new one
		vs.bits = make([]uint64, 2*e.words)
	}
	vs.value = v
	return vs
}

// mark sets bit p of set (0: echoes, 1: readys) and reports whether it was
// clear, counting the new sender.
func (vs *valueSets) mark(set, p, words int) bool {
	w, bit := set*words+p>>6, uint64(1)<<(uint(p)&63)
	if vs.bits[w]&bit != 0 {
		return false
	}
	vs.bits[w] |= bit
	if set == 0 {
		vs.echoes++
	} else {
		vs.readys++
	}
	return true
}

// Broadcast starts a reliable broadcast with this processor as the sender.
func (e *Engine) Broadcast(label string, value any) {
	e.sendAll(Msg{T: Tag{Sender: e.self, Label: label}, Kind: KindInit, Value: value})
}

// BroadcastAt starts a reliable broadcast tagged with structured protocol
// coordinates (see Tag): label names the protocol instance, (round, step)
// the position within it.
func (e *Engine) BroadcastAt(label string, round, step int, value any) {
	e.sendAll(Msg{
		T:     Tag{Sender: e.self, Label: label, Round: round, Step: step},
		Kind:  KindInit,
		Value: value,
	})
}

// sendAll queues m to every member. All copies share one pooled *Msg box
// (boxing the Msg value once per copy was the Bracha benchmark's single
// largest allocation source); the host hands dead boxes back through
// ReclaimPayload. An initial broadcast made while no instance is live fixes
// the home label (see Engine).
func (e *Engine) sendAll(m Msg) {
	if !e.homed && m.Kind == KindInit && e.InstanceCount() == 0 {
		e.home, e.homed = m.T.Label, true
	}
	box := e.takeMsg()
	*box = m
	var payload any = box
	if e.members != nil {
		for _, q := range e.members {
			e.outbox = append(e.outbox, sim.Message{From: e.self, To: q, Payload: payload})
		}
		return
	}
	for q := 0; q < e.n; q++ {
		e.outbox = append(e.outbox, sim.Message{From: e.self, To: sim.ProcID(q), Payload: payload})
	}
}

// takeMsg fetches a payload box from the pool (or allocates one).
func (e *Engine) takeMsg() *Msg {
	if n := len(e.msgPool); n > 0 {
		m := e.msgPool[n-1]
		e.msgPool = e.msgPool[:n-1]
		return m
	}
	return new(Msg)
}

// ReclaimPayload returns a dead broadcast's payload box to the pool. Hosts
// implementing sim.PayloadReclaimer forward the System's callbacks here;
// payload types the engine does not own are ignored, so hosts mixing RBC
// traffic with their own payloads can forward everything.
func (e *Engine) ReclaimPayload(payload any) {
	if m, ok := payload.(*Msg); ok {
		e.msgPool = append(e.msgPool, m)
	}
}

// reclaimOutbox returns the payload boxes of queued-but-unsent messages to
// the pool and truncates the outbox. Those boxes were never exposed outside
// the engine, so reclaiming them immediately is safe. Copies of one
// broadcast are consecutive and share a box, hence the dedup.
func (e *Engine) reclaimOutbox() {
	var last any
	for i := range e.outbox {
		if pl := e.outbox[i].Payload; pl != last {
			last = pl
			if m, ok := pl.(*Msg); ok {
				e.msgPool = append(e.msgPool, m)
			}
		}
	}
	e.outbox = e.outbox[:0]
}

// Flush drains the outgoing message queue; the host's Send step forwards
// these. The returned slice is valid only until the next Handle/Broadcast
// (the outbox capacity is recycled), matching the sim.Process Send contract
// hosts forward it under.
func (e *Engine) Flush() []sim.Message {
	out := e.outbox
	e.outbox = e.outbox[:0]
	return out
}

// PendingOut reports whether messages are queued (hosts use it for their
// dirty-tracking).
func (e *Engine) PendingOut() bool { return len(e.outbox) > 0 }

// Handle processes one incoming message and returns newly accepted
// broadcasts (zero or one — the slice form simplifies hosts; the slice is
// backed by a buffer reused on the next Handle call, so consume it before
// handling another message). Non-RBC payloads, and traffic from outside the
// members, are ignored. Both payload forms are accepted: the pooled *Msg
// boxes engines send, and plain Msg values (hand-built Byzantine traffic,
// tests); the contents are copied out immediately, so a box may be
// reclaimed and overwritten after the window that delivered it.
func (e *Engine) Handle(m sim.Message) []Accepted {
	var msg Msg
	switch pm := m.Payload.(type) {
	case *Msg:
		msg = *pm
	case Msg:
		msg = pm
	default:
		return nil
	}
	from := e.pos(m.From)
	if from < 0 {
		return nil // traffic from outside the scope does not count
	}
	in := e.inst(msg.T)
	switch msg.Kind {
	case KindInit:
		// Only the tag's designated sender may INIT, and only the first
		// INIT counts (a Byzantine sender gains nothing by re-initiating).
		if m.From != msg.T.Sender || in.sentEcho {
			return nil
		}
		in.sentEcho = true
		e.sendAll(Msg{T: msg.T, Kind: KindEcho, Value: msg.Value})
	case KindEcho:
		vs := e.sets(in, msg.Value)
		if !vs.mark(0, from, e.words) {
			return nil
		}
		if vs.echoes >= e.EchoThreshold() && !in.sentReady {
			in.sentReady = true
			e.sendAll(Msg{T: msg.T, Kind: KindReady, Value: msg.Value})
		}
	case KindReady:
		vs := e.sets(in, msg.Value)
		if !vs.mark(1, from, e.words) {
			return nil
		}
		if vs.readys >= e.ReadyAmplify() && !in.sentReady {
			in.sentReady = true
			e.sendAll(Msg{T: msg.T, Kind: KindReady, Value: msg.Value})
		}
		if vs.readys >= e.AcceptThreshold() && !in.accepted {
			in.accepted = true
			e.acceptBuf[0] = Accepted{T: msg.T, Value: msg.Value}
			return e.acceptBuf[:]
		}
	}
	return nil
}

// Reset erases all instance state (for hosts subjected to resetting
// failures and for trial recycling). Blocks, instances with their sender
// sets, and the payload boxes of queued-but-unsent messages return to their
// pools; the home label and the outbox capacity stay.
func (e *Engine) Reset() {
	for len(e.blocks) > 0 {
		e.closeBlock(len(e.blocks) - 1)
	}
	for t, in := range e.spare {
		e.releaseSpare(t, in)
	}
	e.reclaimOutbox()
}

// releaseSpare unmaps a spare instance and pools it.
func (e *Engine) releaseSpare(t Tag, in *instance) {
	in.clear()
	delete(e.spare, t)
	e.instPool = append(e.instPool, in)
}

// InstanceCount returns the number of live broadcast instances (for memory
// accounting in long executions).
func (e *Engine) InstanceCount() int { return e.live + len(e.spare) }

// Forget discards the instances whose tag matches drop, bounding memory in
// long executions (hosts call it when a round's broadcasts can no longer
// matter). A block whose every instance is dropped is released whole.
func (e *Engine) Forget(drop func(Tag) bool) {
	for i := 0; i < len(e.blocks); {
		b := e.blocks[i]
		for p := range b.insts {
			in := &b.insts[p]
			if in.live && drop(Tag{Sender: e.memberAt(p), Label: e.home, Round: b.round, Step: b.step}) {
				e.releaseSlot(b, in)
			}
		}
		if b.live == 0 {
			e.closeBlock(i) // moves the last block into i
			continue
		}
		i++
	}
	for t, in := range e.spare {
		if drop(t) {
			e.releaseSpare(t, in)
		}
	}
}
