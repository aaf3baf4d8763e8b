package sim

import (
	"bytes"
	"slices"
	"testing"
)

// The ops of a buffer script: each byte is one op, the low three bits its
// code (1 and 2 are Add as well) and the high five its argument.
const (
	opAdd       = 0 // Add arg+1 messages
	opTakeFront = 3 // Take the ID arg-1 past the oldest live one (arg 0 misses below it)
	opGet       = 4 // Get the same ID
	opTakeBack  = 5 // Take the ID arg below the newest assigned one
	opDrop      = 6 // DropWhere ID%(arg%3+2) == 0
	opClear     = 7 // DrainAll (arg < 28) or Reset
)

func op(code, arg byte) byte { return arg<<3 | code }

// bufferShapes reports which ring states a script reached, so a test can
// hold each committed seed to the state it was written to force.
type bufferShapes struct {
	grewOffFront bool // the ring grew while head != 0
	wrapped      bool // the live span ran past the ring's end
	clearWrapped bool // DrainAll or Reset met such a span
	pinned       bool // the oldest message sat in front of >= 64 consumed IDs
	holeRun      int  // the longest run of IDs one Take advanced idBase over
}

// bufferScript runs a byte script against a Buffer and a plain map model and
// checks the two agree after every op.
func bufferScript(t *testing.T, script []byte) bufferShapes {
	var shapes bufferShapes
	b := NewBuffer()
	model := map[int64]Message{}
	var next int64 // the model's ID sequence
	front := func() int64 {
		f := next + 1
		for id := range model {
			f = min(f, id)
		}
		return f
	}
	take := func(id int64) {
		want, live := model[id]
		delete(model, id)
		base := b.idBase
		got, ok := b.Take(id)
		if ok != live || got != want {
			t.Fatalf("Take(%d) = %+v, %v; model has %+v, %v", id, got, ok, want, live)
		}
		shapes.holeRun = max(shapes.holeRun, int(b.idBase-base))
	}
	for pc, c := range script {
		switch code, arg := c%8, int64(c/8); code {
		default: // opAdd
			for i := int64(0); i <= arg; i++ {
				ringLen, head := len(b.ring), b.head
				next++
				m := b.Add(Message{From: ProcID(next % 5), To: ProcID(arg), Depth: pc, Payload: next})
				if m.ID != next {
					t.Fatalf("op %d: Add assigned ID %d, want %d", pc, m.ID, next)
				}
				model[m.ID] = m
				if len(b.ring) != ringLen && ringLen > 0 && head != 0 {
					shapes.grewOffFront = true
				}
			}
		case opTakeFront:
			take(front() - 1 + arg)
		case opGet:
			id := front() - 1 + arg
			want, live := model[id]
			if got, ok := b.Get(id); ok != live || got != want {
				t.Fatalf("op %d: Get(%d) = %+v, %v; model has %+v, %v", pc, id, got, ok, want, live)
			}
		case opTakeBack:
			take(next - arg)
		case opDrop:
			mod := arg%3 + 2
			want := 0
			for id := range model {
				if id%mod == 0 {
					delete(model, id)
					want++
				}
			}
			if got := b.DropWhere(func(m Message) bool { return m.ID%mod == 0 }); got != want {
				t.Fatalf("op %d: DropWhere removed %d, model %d", pc, got, want)
			}
		case opClear:
			clear(model)
			if b.head+int(b.nextID-b.idBase+1) > len(b.ring) {
				shapes.clearWrapped = true
			}
			if arg < 28 {
				b.DrainAll()
			} else {
				b.Reset()
				next = 0
			}
		}

		// The observable state: Len, IDs ascending, Pending in ID order.
		ids := b.IDs()
		if b.Len() != len(model) || len(ids) != len(model) {
			t.Fatalf("op %d: Len %d, %d IDs, model holds %d", pc, b.Len(), len(ids), len(model))
		}
		pending := b.Pending()
		for i, id := range ids {
			if i > 0 && ids[i-1] >= id {
				t.Fatalf("op %d: IDs not strictly ascending: %v", pc, ids)
			}
			if want, ok := model[id]; !ok || pending[i] != want {
				t.Fatalf("op %d: Pending[%d] = %+v, model has %+v, %v", pc, i, pending[i], want, ok)
			}
		}
		// The ring: the front cell is the oldest live message, cells of the
		// span hold their own ID or nothing, cells outside it hold nothing
		// (a stale cell would keep a payload from the GC and resurface as a
		// live message once the span reaches it again).
		span := int(b.nextID - b.idBase + 1)
		if b.nextID != next || span < 0 || span > len(b.ring) || (span == 0) != (len(model) == 0) {
			t.Fatalf("op %d: nextID %d (model %d), span %d over a ring of %d, %d live", pc, b.nextID, next, span, len(b.ring), len(model))
		}
		if span > 0 && b.ring[b.head].ID != b.idBase {
			t.Fatalf("op %d: front cell holds ID %d, idBase is %d", pc, b.ring[b.head].ID, b.idBase)
		}
		for k := range b.ring {
			cell := b.ring[(b.head+k)&(len(b.ring)-1)]
			if cell != (Message{}) && (k >= span || cell.ID != b.idBase+int64(k)) {
				t.Fatalf("op %d: cell %d past the front holds %+v (idBase %d, span %d)", pc, k, cell, b.idBase, span)
			}
		}
		shapes.wrapped = shapes.wrapped || b.head+span > len(b.ring)
		shapes.pinned = shapes.pinned || (len(model) > 0 && span-len(model) >= 64)
	}
	return shapes
}

// The committed seeds, each written to force one ring state.
var bufferSeeds = []struct {
	name   string
	script []byte
	hit    func(bufferShapes) bool
}{
	{
		// 40 Adds, 20 Takes off the front (head = 20), 64 more Adds: the
		// span of 84 outgrows the 64-cell ring with head != 0.
		name: "grow off front",
		script: slices.Concat(
			[]byte{op(opAdd, 31), op(opAdd, 7)},
			bytes.Repeat([]byte{op(opTakeFront, 1)}, 20),
			[]byte{op(opAdd, 31), op(opAdd, 31), op(opDrop, 0)}),
		hit: func(s bufferShapes) bool { return s.grewOffFront },
	},
	{
		// 40 Adds, 30 front Takes, 50 Adds: cells 30..89 of a 64-cell ring.
		// Then a DropWhere, front Takes across the ring's end, 40 Adds that
		// wrap again and a DrainAll of that span.
		name: "wrap",
		script: slices.Concat(
			[]byte{op(opAdd, 31), op(opAdd, 7)},
			bytes.Repeat([]byte{op(opTakeFront, 1)}, 30),
			[]byte{op(opAdd, 31), op(opAdd, 17), op(opDrop, 1)},
			bytes.Repeat([]byte{op(opTakeFront, 1)}, 40),
			[]byte{op(opAdd, 31), op(opAdd, 7), op(opClear, 0), op(opAdd, 0)}),
		hit: func(s bufferShapes) bool { return s.wrapped && s.clearWrapped },
	},
	{
		// StarveOne's shape: the oldest message is never consumed while 100
		// later ones come and go behind it (the ring grows to hold the span),
		// then it is taken and idBase crosses all the holes at once. A Reset
		// and an Add follow: the sequence restarts at 1.
		name: "pinned oldest",
		script: slices.Concat(
			[]byte{op(opAdd, 0)},
			bytes.Repeat([]byte{op(opAdd, 0), op(opTakeBack, 0)}, 100),
			[]byte{op(opGet, 2), op(opTakeFront, 1), op(opAdd, 0), op(opClear, 31), op(opAdd, 0)}),
		hit: func(s bufferShapes) bool { return s.pinned && s.holeRun > 100 },
	},
	{
		// 10 Adds, Takes of IDs 2..6, then the front: idBase goes 1 -> 7.
		name: "front take over holes",
		script: []byte{op(opAdd, 9),
			op(opTakeFront, 2), op(opTakeFront, 3), op(opTakeFront, 4), op(opTakeFront, 5), op(opTakeFront, 6),
			op(opTakeFront, 1), op(opGet, 1), op(opGet, 0)},
		hit: func(s bufferShapes) bool { return s.holeRun == 6 },
	},
}

// TestBufferSeedsReachTheirShapes holds each committed FuzzBufferOps seed to
// the ring state it was written to force.
func TestBufferSeedsReachTheirShapes(t *testing.T) {
	for _, seed := range bufferSeeds {
		if shapes := bufferScript(t, seed.script); !seed.hit(shapes) {
			t.Errorf("seed %q no longer reaches its shape: %+v", seed.name, shapes)
		}
	}
}

// FuzzBufferOps is the model-based check of the ring: any script of Add /
// Take / Get / DropWhere / DrainAll / Reset must leave the buffer equal to a
// plain map[int64]Message after every op — IDs strictly increasing across
// DrainAll and restarting at 1 after Reset, Len the model's size, IDs and
// Pending in ID order — with the ring's own invariants intact.
func FuzzBufferOps(f *testing.F) {
	for _, seed := range bufferSeeds {
		f.Add(seed.script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		bufferScript(t, script)
	})
}
