// Package rbc implements Bracha's asynchronous reliable broadcast primitive
// (PODC 1984), tolerating t < n/3 Byzantine processors.
//
// For each broadcast instance (identified by a Tag: the designated sender
// plus an instance id), the protocol is:
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
// The values broadcast are Bracha's: a bit and a decide-candidate mark
// (Value). An Engine serves the one integer instance id it is built with,
// and counts traffic without hashing. Members are a bitset over the host's
// ID space, and a member's position (its rank among the members; on a
// full-system engine, the ID itself) indexes everything else. The instances
// live in one block per (round, step), a slot per member position for the
// tag's sender, found by a short scan of the live blocks behind a last-hit
// cache; each instance counts its echo and ready senders per value in fixed
// arrays indexed by the value. A message with another instance id, a tag
// sender outside the members, a bit other than 0 or 1, or a payload that is
// not a *Msg is ignored: no honest member sends one.
package rbc

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"asyncagree/internal/sim"
)

// Tag identifies a broadcast instance: the designated sender, the engine's
// instance id, and the (round, step) within the protocol instance the id
// names.
type Tag struct {
	Sender      sim.ProcID
	ID          int
	Round, Step int
}

// Value is what a broadcast carries: Bracha's bit plus the step-2 "decide
// candidate" mark used in step 3. Engines ignore a value whose bit is not 0
// or 1.
type Value struct {
	V sim.Bit
	// D marks a step-3 value as a decide candidate.
	D bool
}

// slot indexes v among the four values, 2*D+V; v.V must be 0 or 1.
func (v Value) slot() int {
	if v.D {
		return 2 + int(v.V)
	}
	return int(v.V)
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

// Msg is the wire payload of the reliable broadcast protocol, always sent
// and received boxed as a *Msg.
type Msg struct {
	T     Tag
	Kind  Kind
	Value Value
}

// Accepted reports one completed broadcast.
type Accepted struct {
	T     Tag
	Value Value
}

// MaxMembers bounds an engine's member count: an instance counts senders in
// uint16s.
const MaxMembers = math.MaxUint16

// Engine runs the reliable-broadcast instances of one instance id for one
// host processor, among a member subset of the system's processors (see
// NewScopedEngine): thresholds are relative to the member count and
// broadcasts go only to members. Scoped engines are how committees run the
// slow protocol internally in the Kapron-style algorithm; a full-system
// engine (NewEngine) has every processor as a member and sends each
// broadcast as one message To sim.All.
type Engine struct {
	self sim.ProcID
	n, t int
	id   int
	// all marks a full-system engine: its broadcasts go To sim.All, and a
	// member's position is its ID.
	all bool

	// members lists the participating processors in the order broadcasts
	// address them. member is the same set as a bitset over the host's ID
	// space and rank[w] counts the members below word w, so a member's
	// position — its rank, 0..n-1 — is one popcount away.
	members []sim.ProcID
	member  []uint64
	rank    []int32

	// blocks are the live blocks, in no particular order; last is the block
	// the previous lookup hit, and live counts the live instances in blocks.
	blocks []*block
	last   *block
	live   int

	outbox []sim.Message
	// acc is the broadcast the last Handle completed.
	acc Accepted

	// words sizes one sender bitset: one bit per member position.
	words int

	// Recycling pools (see sim.PayloadReclaimer and DESIGN.md §2a): msgPool
	// holds the heap-boxed *Msg payloads of dead broadcasts, blockPool the
	// blocks released by ForgetBefore/Reset, each keeping its instances'
	// sender bitsets. In step mode msgPool stays empty (nothing is
	// reclaimed) and every broadcast boxes fresh, which is always safe.
	msgPool   []*Msg
	blockPool []*block
}

// block holds the instances of one (round, step): insts[p] is the instance
// whose tag sender sits at member position p.
type block struct {
	round, step int
	live        int // instances in use
	insts       []instance
}

// instance is one broadcast's state. count[0][k] and count[1][k] count the
// distinct members that echoed and readied the value of slot k; bits holds
// them by member position, the echoes of slot k at bits[2k*words:] and the
// readys after them. bits is allocated at the instance's first ECHO or
// READY and kept, cleared, when the instance is released.
type instance struct {
	live      bool // the slot is in use
	sentEcho  bool
	sentReady bool
	accepted  bool
	count     [2][4]uint16
	bits      []uint64
}

// NewEngine returns a full-system Engine for the broadcasts of instance id:
// every processor 0..n-1 of an n-processor system is a member, and each
// broadcast is one message To sim.All. It returns an error unless n > 3t
// and 0 <= self < n.
func NewEngine(self sim.ProcID, n, t, id int) (*Engine, error) {
	members := make([]sim.ProcID, max(n, 0))
	for i := range members {
		members[i] = sim.ProcID(i)
	}
	e, err := NewScopedEngine(self, members, t, id)
	if err != nil {
		return nil, err
	}
	e.all = true
	return e, nil
}

// NewScopedEngine returns an Engine for the broadcasts of instance id whose
// broadcast group is the given member list (which must contain self),
// tolerating t Byzantine members. It returns an error unless
// 3t < len(members) <= MaxMembers and the members are distinct,
// non-negative IDs.
func NewScopedEngine(self sim.ProcID, members []sim.ProcID, t, id int) (*Engine, error) {
	n := len(members)
	if t < 0 || n <= 3*t {
		return nil, fmt.Errorf("rbc: need |members| > 3t, got %d members, t=%d", n, t)
	}
	if n > MaxMembers {
		return nil, fmt.Errorf("rbc: %d members, at most %d", n, MaxMembers)
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
		id:      id,
		words:   (n + 63) / 64,
		members: slices.Clone(members),
		member:  make([]uint64, int(ids[n-1])/64+1),
	}
	for _, q := range ids {
		w, bit := int(q)>>6, uint64(1)<<(uint(q)&63)
		if e.member[w]&bit != 0 {
			return nil, fmt.Errorf("rbc: duplicate member ID %d", q)
		}
		e.member[w] |= bit
	}
	e.rank = make([]int32, len(e.member))
	below := 0
	for w, word := range e.member {
		e.rank[w] = int32(below)
		below += bits.OnesCount64(word)
	}
	if e.pos(self) < 0 {
		return nil, fmt.Errorf("rbc: self %d not in member list", self)
	}
	return e, nil
}

// pos returns q's member position, or -1 if q is not a member.
func (e *Engine) pos(q sim.ProcID) int {
	if e.all {
		if uint(q) < uint(e.n) {
			return int(q)
		}
		return -1
	}
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

// EchoThreshold returns the echo count required to send READY:
// ceil((n+t+1)/2).
func (e *Engine) EchoThreshold() int { return (e.n + e.t + 2) / 2 }

// ReadyAmplify returns the ready count that triggers READY amplification.
func (e *Engine) ReadyAmplify() int { return e.t + 1 }

// AcceptThreshold returns the ready count required to accept.
func (e *Engine) AcceptThreshold() int { return 2*e.t + 1 }

// inst returns the instance of tag t, opening its block slot if it is not
// live, or nil when t is not the engine's to run: another instance id, or a
// tag sender outside the members. An honest member echoes only an INIT from
// the tag's own sender, and only members are heard, so no honest member
// ever sends for such a tag.
func (e *Engine) inst(t Tag) *instance {
	p := e.pos(t.Sender)
	if t.ID != e.id || p < 0 {
		return nil
	}
	b := e.block(t.Round, t.Step)
	in := &b.insts[p]
	if !in.live {
		in.live = true
		b.live++
		e.live++
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

// closeBlock releases the live block at blocks[i], with its instances, to
// the pool.
func (e *Engine) closeBlock(i int) {
	b := e.blocks[i]
	for p := range b.insts {
		if b.insts[p].live {
			b.insts[p].clear()
		}
	}
	e.live -= b.live
	b.live = 0
	last := len(e.blocks) - 1
	e.blocks[i] = e.blocks[last]
	e.blocks[last] = nil
	e.blocks = e.blocks[:last]
	if e.last == b {
		e.last = nil
	}
	e.blockPool = append(e.blockPool, b)
}

// clear rewinds an instance to unused, keeping its bitsets.
func (in *instance) clear() {
	clear(in.bits)
	*in = instance{bits: in.bits}
}

// mark records member position p among the echoes (set 0) or readys (set 1)
// of value slot k and reports whether it is new, counting it.
func (in *instance) mark(set, k, p, words int) bool {
	if in.bits == nil {
		in.bits = make([]uint64, 8*words)
	}
	w, bit := (2*k+set)*words+p>>6, uint64(1)<<(uint(p)&63)
	if in.bits[w]&bit != 0 {
		return false
	}
	in.bits[w] |= bit
	in.count[set][k]++
	return true
}

// Broadcast starts a reliable broadcast of value with this processor as the
// sender, at (round, step) of the engine's instance.
func (e *Engine) Broadcast(round, step int, value Value) {
	e.sendAll(Msg{
		T:     Tag{Sender: e.self, ID: e.id, Round: round, Step: step},
		Kind:  KindInit,
		Value: value,
	})
}

// sendAll queues m to every member: one message To sim.All on a
// full-system engine, one per member on a scoped one. Either way it is one
// pooled *Msg box (boxing the Msg value once per copy was the Bracha
// benchmark's single largest allocation source); the host hands dead boxes
// back through ReclaimPayload.
func (e *Engine) sendAll(m Msg) {
	box := e.takeMsg()
	*box = m
	if e.all {
		e.outbox = append(e.outbox, sim.Message{From: e.self, To: sim.All, Payload: box})
		return
	}
	var payload any = box
	for _, q := range e.members {
		e.outbox = append(e.outbox, sim.Message{From: e.self, To: q, Payload: payload})
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

// Handle processes one incoming message and reports the broadcast it
// completed, if any: the engine's own record of it, valid until the next
// Handle, or nil: a pointer, because copying a returned struct out on every
// message stalls the caller on this hot path. Payloads other than *Msg,
// values whose bit is not 0 or 1, traffic from outside the members, and
// tags that are not the engine's to run (see inst) are ignored. The
// contents are copied out immediately, so a box may be reclaimed and
// overwritten after the window that delivered it.
func (e *Engine) Handle(m sim.Message) *Accepted {
	pm, ok := m.Payload.(*Msg)
	if !ok || pm.Value.V > 1 {
		return nil
	}
	msg := *pm
	from := e.pos(m.From)
	if from < 0 {
		return nil // traffic from outside the scope does not count
	}
	in := e.inst(msg.T)
	if in == nil {
		return nil
	}
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
		k := msg.Value.slot()
		if !in.mark(0, k, from, e.words) {
			return nil
		}
		if int(in.count[0][k]) >= e.EchoThreshold() && !in.sentReady {
			in.sentReady = true
			e.sendAll(Msg{T: msg.T, Kind: KindReady, Value: msg.Value})
		}
	case KindReady:
		k := msg.Value.slot()
		if !in.mark(1, k, from, e.words) {
			return nil
		}
		readys := int(in.count[1][k])
		if readys >= e.ReadyAmplify() && !in.sentReady {
			in.sentReady = true
			e.sendAll(Msg{T: msg.T, Kind: KindReady, Value: msg.Value})
		}
		if readys >= e.AcceptThreshold() && !in.accepted {
			in.accepted = true
			e.acc = Accepted{T: msg.T, Value: msg.Value}
			return &e.acc
		}
	}
	return nil
}

// Reset erases all instance state (for hosts subjected to resetting
// failures and for trial recycling). Blocks with their sender sets, and the
// payload boxes of queued-but-unsent messages, return to their pools; the
// outbox capacity stays.
func (e *Engine) Reset() {
	for len(e.blocks) > 0 {
		e.closeBlock(len(e.blocks) - 1)
	}
	e.reclaimOutbox()
}

// RetainedBytes estimates the bytes the engine keeps across Reset: its
// blocks, live and pooled, with their instances' sender bitsets, the outbox
// and the pooled payload boxes.
func (e *Engine) RetainedBytes() int64 {
	b := int64(unsafe.Sizeof(sim.Message{}))*int64(cap(e.outbox)) +
		int64(8+unsafe.Sizeof(Msg{}))*int64(cap(e.msgPool)) + 8*int64(cap(e.blocks)+cap(e.blockPool))
	for _, set := range [2][]*block{e.blocks, e.blockPool} {
		for _, bl := range set {
			b += int64(unsafe.Sizeof(*bl)) + int64(unsafe.Sizeof(instance{}))*int64(cap(bl.insts))
			for i := range bl.insts {
				b += 8 * int64(cap(bl.insts[i].bits))
			}
		}
	}
	return b
}

// InstanceCount returns the number of live broadcast instances (for memory
// accounting in long executions).
func (e *Engine) InstanceCount() int { return e.live }

// ForgetBefore discards every instance of a round below round, bounding
// memory in long executions (hosts call it when those rounds' broadcasts
// can no longer matter). Their blocks go back to the pool whole.
func (e *Engine) ForgetBefore(round int) {
	for i := 0; i < len(e.blocks); {
		if e.blocks[i].round < round {
			e.closeBlock(i) // moves the last block into i
			continue
		}
		i++
	}
}
