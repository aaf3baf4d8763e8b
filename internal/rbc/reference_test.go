package rbc

import (
	"fmt"
	"slices"
	"testing"

	"asyncagree/internal/rng"
	"asyncagree/internal/sim"
)

// mapEngine is the reliable-broadcast engine as it stood before instances
// moved into per-(round, step) blocks: one map from Tag to instance, one map
// from value to sender set per instance, and a membership map. It is kept
// verbatim, renamed only, as the reference TestEngineMatchesMapReference
// holds Engine to.

// mapEngine runs all reliable-broadcast instances for one host processor.
//
// A mapEngine may be scoped to a subset of the system's processors (see
// newScopedMapEngine): thresholds are relative to the member count and
// broadcasts go only to members. Scoped engines are how committees run the
// slow protocol internally in the Kapron-style algorithm.
type mapEngine struct {
	self sim.ProcID
	n, t int

	// members lists the participating processors, ascending; nil means the
	// full system 0..n-1. isMember gates incoming traffic.
	members  []sim.ProcID
	isMember map[sim.ProcID]bool

	instances map[Tag]*mapInstance
	outbox    []sim.Message

	// setWords sizes the sender-set bitsets: enough words to index the
	// highest participating ProcID (member IDs live in the host system's ID
	// space, which for scoped engines is wider than the member count).
	setWords int

	// Recycling pools (see sim.PayloadReclaimer and DESIGN.md §2a): msgPool
	// holds the heap-boxed *Msg payloads of dead broadcasts, instPool and
	// setPool the mapInstance records and per-value sender sets released by
	// Forget/Reset. In step mode the pools stay empty (nothing is reclaimed)
	// and every broadcast boxes fresh, which is always safe.
	msgPool  []*Msg
	instPool []*mapInstance
	setPool  []*mapSenderSet

	// acceptBuf backs Handle's zero-or-one-element result slice, so an
	// acceptance does not allocate on the delivery hot path.
	acceptBuf [1]Accepted
}

// mapSenderSet counts distinct processors as a fixed-size bitset. A pooled set
// never grows after construction (unlike a map, whose buckets re-allocate as
// a fresh set fills), which is what keeps the Bracha window loop
// allocation-free at steady state.
type mapSenderSet struct {
	bits  []uint64
	count int
}

func (s *mapSenderSet) has(q sim.ProcID) bool {
	return s.bits[int(q)>>6]&(uint64(1)<<(uint(q)&63)) != 0
}

func (s *mapSenderSet) add(q sim.ProcID) {
	s.bits[int(q)>>6] |= uint64(1) << (uint(q) & 63)
	s.count++
}

func (s *mapSenderSet) clear() {
	clear(s.bits)
	s.count = 0
}

type mapInstance struct {
	sentEcho  bool
	sentReady bool
	accepted  bool
	// echoes/readys count distinct processors per value.
	echoes map[any]*mapSenderSet
	readys map[any]*mapSenderSet
}

// newMapEngine returns a mapEngine for host processor self in a system of n
// processors tolerating t Byzantine faults. It returns an error unless
// 0 <= t and n > 3t.
func newMapEngine(self sim.ProcID, n, t int) (*mapEngine, error) {
	if t < 0 || n <= 3*t {
		return nil, fmt.Errorf("rbc: need n > 3t, got n=%d t=%d", n, t)
	}
	return &mapEngine{
		self: self, n: n, t: t,
		setWords:  (n + 63) / 64,
		instances: make(map[Tag]*mapInstance),
	}, nil
}

// newScopedMapEngine returns a mapEngine whose broadcast group is the given
// member list (which must contain self), tolerating t Byzantine members.
// It returns an error unless len(members) > 3t.
func newScopedMapEngine(self sim.ProcID, members []sim.ProcID, t int) (*mapEngine, error) {
	n := len(members)
	if t < 0 || n <= 3*t {
		return nil, fmt.Errorf("rbc: need |members| > 3t, got %d members, t=%d", n, t)
	}
	isMember := make(map[sim.ProcID]bool, n)
	maxID := self
	for _, m := range members {
		isMember[m] = true
		if m > maxID {
			maxID = m
		}
	}
	if !isMember[self] {
		return nil, fmt.Errorf("rbc: self %d not in member list", self)
	}
	return &mapEngine{
		self:      self,
		n:         n,
		t:         t,
		setWords:  (int(maxID) + 64) / 64,
		members:   append([]sim.ProcID(nil), members...),
		isMember:  isMember,
		instances: make(map[Tag]*mapInstance),
	}, nil
}

// EchoThreshold returns the echo count required to send READY:
// ceil((n+t+1)/2).
func (e *mapEngine) EchoThreshold() int { return (e.n + e.t + 2) / 2 }

// ReadyAmplify returns the ready count that triggers READY amplification.
func (e *mapEngine) ReadyAmplify() int { return e.t + 1 }

// AcceptThreshold returns the ready count required to accept.
func (e *mapEngine) AcceptThreshold() int { return 2*e.t + 1 }

func (e *mapEngine) inst(t Tag) *mapInstance {
	in := e.instances[t]
	if in == nil {
		if n := len(e.instPool); n > 0 {
			in = e.instPool[n-1]
			e.instPool = e.instPool[:n-1]
		} else {
			in = &mapInstance{
				echoes: make(map[any]*mapSenderSet),
				readys: make(map[any]*mapSenderSet),
			}
		}
		e.instances[t] = in
	}
	return in
}

// releaseInstance returns a mapInstance and its sender sets to the pools.
func (e *mapEngine) releaseInstance(in *mapInstance) {
	for _, set := range in.echoes {
		set.clear()
		e.setPool = append(e.setPool, set)
	}
	for _, set := range in.readys {
		set.clear()
		e.setPool = append(e.setPool, set)
	}
	clear(in.echoes)
	clear(in.readys)
	in.sentEcho, in.sentReady, in.accepted = false, false, false
	e.instPool = append(e.instPool, in)
}

// takeSet fetches a cleared sender set from the pool (or allocates one).
func (e *mapEngine) takeSet() *mapSenderSet {
	if n := len(e.setPool); n > 0 {
		set := e.setPool[n-1]
		e.setPool = e.setPool[:n-1]
		return set
	}
	return &mapSenderSet{bits: make([]uint64, e.setWords)}
}

// Broadcast starts a reliable broadcast with this processor as the sender.
func (e *mapEngine) Broadcast(label string, value any) {
	e.sendAll(Msg{T: Tag{Sender: e.self, Label: label}, Kind: KindInit, Value: value})
}

// BroadcastAt starts a reliable broadcast tagged with structured protocol
// coordinates (see Tag): label names the protocol instance, (round, step)
// the position within it.
func (e *mapEngine) BroadcastAt(label string, round, step int, value any) {
	e.sendAll(Msg{
		T:     Tag{Sender: e.self, Label: label, Round: round, Step: step},
		Kind:  KindInit,
		Value: value,
	})
}

// sendAll queues m to every member. All copies share one pooled *Msg box
// (boxing the Msg value once per copy was the Bracha benchmark's single
// largest allocation source); the host hands dead boxes back through
// ReclaimPayload.
func (e *mapEngine) sendAll(m Msg) {
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
func (e *mapEngine) takeMsg() *Msg {
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
func (e *mapEngine) ReclaimPayload(payload any) {
	if m, ok := payload.(*Msg); ok {
		e.msgPool = append(e.msgPool, m)
	}
}

// reclaimOutbox returns the payload boxes of queued-but-unsent messages to
// the pool and truncates the outbox. Those boxes were never exposed outside
// the engine, so reclaiming them immediately is safe. Copies of one
// broadcast are consecutive and share a box, hence the dedup.
func (e *mapEngine) reclaimOutbox() {
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
func (e *mapEngine) Flush() []sim.Message {
	out := e.outbox
	e.outbox = e.outbox[:0]
	return out
}

// PendingOut reports whether messages are queued (hosts use it for their
// dirty-tracking).
func (e *mapEngine) PendingOut() bool { return len(e.outbox) > 0 }

// Handle processes one incoming message and returns newly accepted
// broadcasts (zero or one — the slice form simplifies hosts; the slice is
// backed by a buffer reused on the next Handle call, so consume it before
// handling another message). Non-RBC
// payloads are ignored. Both payload forms are accepted: the pooled *Msg
// boxes engines send, and plain Msg values (hand-built Byzantine traffic,
// tests); the contents are copied out immediately, so a box may be
// reclaimed and overwritten after the window that delivered it.
func (e *mapEngine) Handle(m sim.Message) []Accepted {
	var msg Msg
	switch pm := m.Payload.(type) {
	case *Msg:
		msg = *pm
	case Msg:
		msg = pm
	default:
		return nil
	}
	if e.isMember != nil && !e.isMember[m.From] {
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
		set := in.echoes[msg.Value]
		if set == nil {
			set = e.takeSet()
			in.echoes[msg.Value] = set
		}
		if set.has(m.From) {
			return nil
		}
		set.add(m.From)
		if set.count >= e.EchoThreshold() && !in.sentReady {
			in.sentReady = true
			e.sendAll(Msg{T: msg.T, Kind: KindReady, Value: msg.Value})
		}
	case KindReady:
		set := in.readys[msg.Value]
		if set == nil {
			set = e.takeSet()
			in.readys[msg.Value] = set
		}
		if set.has(m.From) {
			return nil
		}
		set.add(m.From)
		if set.count >= e.ReadyAmplify() && !in.sentReady {
			in.sentReady = true
			e.sendAll(Msg{T: msg.T, Kind: KindReady, Value: msg.Value})
		}
		if set.count >= e.AcceptThreshold() && !in.accepted {
			in.accepted = true
			e.acceptBuf[0] = Accepted{T: msg.T, Value: msg.Value}
			return e.acceptBuf[:]
		}
	}
	return nil
}

// Reset erases all mapInstance state (for hosts subjected to resetting
// failures and for trial recycling). The mapInstance map and outbox keep their
// capacity, and instances, sender sets, and the payload boxes of
// queued-but-unsent messages return to their pools.
func (e *mapEngine) Reset() {
	for _, in := range e.instances {
		e.releaseInstance(in)
	}
	clear(e.instances)
	e.reclaimOutbox()
}

// InstanceCount returns the number of live broadcast instances (for memory
// accounting in long executions).
func (e *mapEngine) InstanceCount() int { return len(e.instances) }

// Forget discards instances whose label matches drop, bounding memory in
// long executions (hosts call it when a round's broadcasts can no longer
// matter).
func (e *mapEngine) Forget(drop func(Tag) bool) {
	for t, in := range e.instances {
		if drop(t) {
			e.releaseInstance(in)
			delete(e.instances, t)
		}
	}
}

// refVal is a comparable value payload shaped like Bracha's (a bit and a
// mark). refVals holds interned boxes; the stream also sends hand-built
// boxes of equal values, which must count as the same value.
type refVal struct {
	V uint8
	D bool
}

var refVals = []any{refVal{0, false}, refVal{1, false}, refVal{0, true}, refVal{1, true}, "s", 7}

// refStream drives one Engine and one mapEngine for the same host through
// the same seeded operations.
type refStream struct {
	t       *testing.T
	r       *rng.Source
	e       *Engine
	ref     *mapEngine
	members []sim.ProcID
	outside []sim.ProcID // IDs of non-members (empty for an unscoped engine)
	hot     []Tag        // the tags most traffic is about, so thresholds cross
	boxes   [2][]any     // flushed payloads not yet handed back, per engine
}

func (st *refStream) member() sim.ProcID { return st.members[st.r.Intn(len(st.members))] }

// sender is a member, or now and then (scoped engines only) a non-member.
func (st *refStream) sender() sim.ProcID {
	if len(st.outside) > 0 && st.r.Intn(10) == 0 {
		return st.outside[st.r.Intn(len(st.outside))]
	}
	return st.member()
}

// tag draws a hot tag most of the time, otherwise any label (the home one,
// a foreign one shaped like the Equivocator's, another), any sender (a
// non-member now and then) and a small (round, step).
func (st *refStream) tag() Tag {
	if st.r.Intn(5) > 0 {
		return st.hot[st.r.Intn(len(st.hot))]
	}
	tag := Tag{Label: []string{"ba", "ba", "r3s1", "x"}[st.r.Intn(4)], Round: st.r.Intn(5), Step: 1 + st.r.Intn(3)}
	switch st.r.Intn(10) {
	case 0:
		tag.Sender = sim.ProcID(-1 - st.r.Intn(3))
	case 1:
		tag.Sender = sim.ProcID(1000 + st.r.Intn(3))
	default:
		tag.Sender = st.member()
	}
	return tag
}

// value is mostly one of two interned values, sometimes an equal value boxed
// by hand, sometimes anything else.
func (st *refStream) value() any {
	switch st.r.Intn(8) {
	case 0:
		return refVal{V: uint8(st.r.Intn(2)), D: st.r.Bit() == 1} // a fresh box
	case 1:
		return refVals[st.r.Intn(len(refVals))]
	default:
		return refVals[st.r.Intn(2)]
	}
}

func (st *refStream) handle(op int) {
	tag := st.tag()
	msg := Msg{T: tag, Value: st.value()}
	from := st.sender()
	switch k := st.r.Intn(20); {
	case k < 3:
		msg.Kind = KindInit
		// The designated sender, unless it is no processor: the System
		// authenticates From, so a full-system engine never hears from an ID
		// outside [0, n) (the map engine counted such a sender, or crashed
		// on it; Engine ignores it like any non-member).
		if st.r.Intn(5) > 0 && (st.outside != nil || tag.Sender >= 0 && int(tag.Sender) < len(st.members)) {
			from = tag.Sender
		}
	case k < 11:
		msg.Kind = KindEcho
	case k < 19:
		msg.Kind = KindReady
	default:
		msg.Kind = Kind(4 + st.r.Intn(3)) // not a kind at all
	}
	m := sim.Message{From: from, To: st.e.self, Payload: msg}
	if st.r.Bit() == 1 {
		box := msg
		m.Payload = &box
	}
	got, want := st.e.Handle(m), st.ref.Handle(m)
	if !slices.Equal(got, want) {
		st.t.Fatalf("op %d: Handle(%+v) accepted %+v, the map engine %+v", op, msg, got, want)
	}
	st.compareOut(op)
}

// compareOut flushes both outboxes and compares them message by message,
// keeping the payloads for a later hand-back.
func (st *refStream) compareOut(op int) {
	out, refOut := st.e.Flush(), st.ref.Flush()
	if len(out) != len(refOut) {
		st.t.Fatalf("op %d: flushed %d messages, the map engine %d", op, len(out), len(refOut))
	}
	for i := range out {
		a, b := out[i], refOut[i]
		if a.From != b.From || a.To != b.To || *a.Payload.(*Msg) != *b.Payload.(*Msg) {
			st.t.Fatalf("op %d: flushed message %d is %+v %+v, the map engine's %+v %+v",
				op, i, a, *a.Payload.(*Msg), b, *b.Payload.(*Msg))
		}
		st.boxes[0] = append(st.boxes[0], a.Payload)
		st.boxes[1] = append(st.boxes[1], b.Payload)
	}
	if got, want := st.e.InstanceCount(), st.ref.InstanceCount(); got != want {
		st.t.Fatalf("op %d: %d live instances, the map engine %d", op, got, want)
	}
}

// recycle hands the flushed payload boxes back, once per broadcast, as the
// System does at the end of a window.
func (st *refStream) recycle() {
	for k, reclaim := range []func(any){st.e.ReclaimPayload, st.ref.ReclaimPayload} {
		var last any
		for _, pl := range st.boxes[k] {
			if pl != last {
				reclaim(pl)
				last = pl
			}
		}
		st.boxes[k] = st.boxes[k][:0]
	}
}

// forget drops by round (what Agreement does), by label, or by sender
// parity, which splits a block.
func (st *refStream) forget() {
	round, label := st.r.Intn(5), []string{"ba", "r3s1", "x"}[st.r.Intn(3)]
	var drop func(Tag) bool
	switch st.r.Intn(3) {
	case 0:
		drop = func(t Tag) bool { return t.Label == "ba" && t.Round <= round }
	case 1:
		drop = func(t Tag) bool { return t.Label == label }
	default:
		drop = func(t Tag) bool { return t.Sender%2 == 0 && t.Round == round }
	}
	st.e.Forget(drop)
	st.ref.Forget(drop)
}

// TestEngineMatchesMapReference runs the block engine beside the map engine
// it replaced on seeded streams for full and scoped groups (members spread
// over several words, listed out of order): honest-shaped INIT/ECHO/READY
// traffic on a few hot tags, foreign labels, senders and tag senders outside
// the members, hand-built value boxes, repeated INITs and stragglers for
// forgotten rounds, unknown kinds, broadcasts before and after the first
// Handle, and Forget, Reset and payload hand-backs mid-stream. After every
// Handle the accepts, the flushed messages and the live instance count must
// match.
func TestEngineMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		st := &refStream{t: t, r: r}
		var err, refErr error
		if seed%2 == 0 {
			n := 4 + r.Intn(80)
			tt := r.Intn((n-1)/3 + 1)
			for q := 0; q < n; q++ {
				st.members = append(st.members, sim.ProcID(q))
			}
			self := st.member()
			st.e, err = NewEngine(self, n, tt)
			st.ref, refErr = newMapEngine(self, n, tt)
		} else {
			space := 8 + r.Intn(150)
			ids := r.Perm(space)
			n := 4 + r.Intn(min(space-4, 30))
			for _, q := range ids[:n] {
				st.members = append(st.members, sim.ProcID(q))
			}
			for _, q := range ids[n:] {
				st.outside = append(st.outside, sim.ProcID(q))
			}
			self := st.member()
			tt := r.Intn((n-1)/3 + 1)
			st.e, err = NewScopedEngine(self, st.members, tt)
			st.ref, refErr = newScopedMapEngine(self, st.members, tt)
		}
		if err != nil || refErr != nil {
			t.Fatalf("seed %d: %v / %v", seed, err, refErr)
		}
		for range 6 {
			st.hot = append(st.hot, Tag{Sender: st.member(), Label: "ba", Round: r.Intn(3), Step: 1 + r.Intn(3)})
		}
		if r.Bit() == 1 { // the host speaks first, as an Agreement does
			v := st.value()
			st.e.BroadcastAt("ba", 1, 1, v)
			st.ref.BroadcastAt("ba", 1, 1, v)
		}
		for op := 0; op < 3000; op++ {
			switch k := r.Intn(100); {
			case k < 85:
				st.handle(op)
			case k < 89:
				label, round, v := []string{"ba", "x"}[r.Intn(2)], r.Intn(4), st.value()
				st.e.BroadcastAt(label, round, 1, v)
				st.ref.BroadcastAt(label, round, 1, v)
			case k < 93:
				st.compareOut(op)
				st.recycle()
			case k < 98:
				st.forget()
			default:
				st.e.Reset()
				st.ref.Reset()
			}
		}
	}
}
