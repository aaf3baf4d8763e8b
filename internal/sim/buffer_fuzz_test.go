package sim

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"
)

// The ops of a buffer script: each byte is one op, the low three bits its
// code (1 is Add as well) and the high five its argument.
const (
	opAdd       = 0 // Add arg+1 messages
	opAddAll    = 2 // AddAll one record to audience(arg)
	opTakeFront = 3 // Take the ID arg-1 past the oldest live one (arg 0 misses below it)
	opGet       = 4 // Get the same ID
	opTakeBack  = 5 // Take the ID arg below the newest assigned one
	opDrop      = 6 // DropWhere ID%(arg%3+2) == 0
	opClear     = 7 // DrainAll (arg < 28) or Reset
)

func op(code, arg byte) byte { return arg<<3 | code }

// audiences[arg] is the receiver list opAddAll sends to: every processor of
// an n = arg/2+1 system for an even arg, its even-numbered ones for an odd
// arg, so a copy's position differs from its receiver. One list per arg, as
// the System passes one list until a crash.
var audiences = func() (auds [32][]ProcID) {
	for arg := range auds {
		n := arg/2 + 1
		for q := 0; q < n; q++ {
			if arg%2 == 0 || q%2 == 0 {
				auds[arg] = append(auds[arg], ProcID(q))
			}
		}
	}
	return auds
}()

// bufferShapes reports which buffer states a script reached, so a test can
// hold each committed seed to the state it was written to force.
type bufferShapes struct {
	grewOffFront  bool // the ring grew while head != 0
	wrapped       bool // the live cells ran past the ring's end
	clearWrapped  bool // DrainAll or Reset met such cells
	pinned        bool // the oldest message sat in front of >= 64 consumed IDs
	holeRun       int  // the longest run of IDs one Take advanced idBase over
	tookCopy      bool // a Take left other copies of its record buffered
	gotCopy       bool // a Get returned a broadcast's copy past its first
	dropAcross    bool // a DropWhere removed some but not all copies of a record
	recordWrapped bool // a broadcast record sat in cells past the ring's end
	bitsWrapped   bool // a record with taken copies ran past the end of gone's bit ring
	goneRegrew    bool // gone grew while it held marks
}

// bufferScript runs a byte script against a Buffer and a plain map model of
// its copies and checks the two agree after every op.
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
	// siblings counts the model's copies that share id's record.
	siblings := func(id int64) int {
		i, _, ok := b.find(id)
		if !ok {
			return 0
		}
		n := 0
		for c := 0; c < b.copies(b.recs[i]); c++ {
			if _, live := model[b.ring[i].ID+int64(c)]; live {
				n++
			}
		}
		return n
	}
	take := func(id int64) {
		want, live := model[id]
		others := siblings(id) - 1
		delete(model, id)
		base := b.idBase
		got, ok := b.Take(id)
		if ok != live || got != want {
			t.Fatalf("Take(%d) = %+v, %v; model has %+v, %v", id, got, ok, want, live)
		}
		shapes.holeRun = max(shapes.holeRun, int(b.idBase-base))
		shapes.tookCopy = shapes.tookCopy || (live && others > 0)
	}
	for pc, c := range script {
		holes, goneLen := b.holes, len(b.gone)
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
		case opAddAll:
			to := audiences[arg]
			rec := b.AddAll(Message{From: ProcID(next % 5), To: 3, Depth: pc, Payload: next + 1}, to)
			if rec.ID != next+1 || rec.To != All {
				t.Fatalf("op %d: AddAll stored ID %d To %d, want ID %d To All", pc, rec.ID, rec.To, next+1)
			}
			for k, q := range to {
				m := rec
				m.ID, m.To = rec.ID+int64(k), q
				model[m.ID] = m
			}
			next += int64(len(to))
		case opTakeFront:
			take(front() - 1 + arg)
		case opGet:
			id := front() - 1 + arg
			want, live := model[id]
			got, ok := b.Get(id)
			if ok != live || got != want {
				t.Fatalf("op %d: Get(%d) = %+v, %v; model has %+v, %v", pc, id, got, ok, want, live)
			}
			if i, c, ok := b.find(id); ok && c > 0 && b.recs[i].aud != 0 {
				shapes.gotCopy = true
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
			before := map[int64]int32{} // the broadcasts' copies left, by first ID
			for k := 0; k < b.cells; k++ {
				if i := b.at(k); b.recs[i].aud != 0 {
					before[b.ring[i].ID] = b.recs[i].left
				}
			}
			if got := b.DropWhere(func(m Message) bool { return m.ID%mod == 0 }); got != want {
				t.Fatalf("op %d: DropWhere removed %d, model %d", pc, got, want)
			}
			for k := 0; k < b.cells; k++ {
				i := b.at(k)
				if left, ok := before[b.ring[i].ID]; ok && b.recs[i].left > 0 && b.recs[i].left < left {
					shapes.dropAcross = true
				}
			}
		case opClear:
			clear(model)
			if b.head+b.cells > len(b.ring) {
				shapes.clearWrapped = true
			}
			if arg < 28 {
				b.DrainAll()
			} else {
				b.Reset()
				next = 0
			}
		}
		shapes.goneRegrew = shapes.goneRegrew || (holes > 0 && goneLen > 0 && len(b.gone) != goneLen)

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
		checkRing(t, pc, b, model, next, &shapes)
	}
	return shapes
}

// checkRing holds the ring to its invariants: the front cell is live and
// holds idBase, each cell's IDs follow the last's, a live cell counts the
// model's copies in it and a dead one keeps only its ID, the gone bits are
// exactly the taken copies of live broadcasts, and cells outside the live
// ones hold nothing (a stale cell would keep a payload from the GC and
// resurface once the live cells reach it again).
func checkRing(t *testing.T, pc int, b *Buffer, model map[int64]Message, next int64, shapes *bufferShapes) {
	t.Helper()
	if b.nextID != next || b.cells > len(b.ring) || (b.cells == 0) != (len(model) == 0) {
		t.Fatalf("op %d: nextID %d (model %d), %d cells over a ring of %d, %d live", pc, b.nextID, next, b.cells, len(b.ring), len(model))
	}
	if b.cells == 0 && (b.idBase != next+1 || len(b.auds) != 0) {
		t.Fatalf("op %d: empty, but idBase %d (next %d) and %d receiver lists", pc, b.idBase, next, len(b.auds))
	}
	if b.cells > 0 && (b.ring[b.head].ID != b.idBase || b.recs[b.head].left == 0) {
		t.Fatalf("op %d: front cell %+v, %+v; idBase is %d", pc, b.ring[b.head], b.recs[b.head], b.idBase)
	}
	holes, want := 0, b.idBase
	for k := range b.ring {
		i := b.at(k)
		m, r := b.ring[i], b.recs[i]
		if k >= b.cells {
			if m != (Message{}) || r != (record{}) {
				t.Fatalf("op %d: cell %d past the live ones holds %+v, %+v", pc, k, m, r)
			}
			continue
		}
		if m.ID != want {
			t.Fatalf("op %d: cell %d starts at ID %d, want %d", pc, k, m.ID, want)
		}
		n := b.copies(r)
		want += int64(n)
		inModel := 0
		for c := 0; c < n; c++ {
			if _, ok := model[m.ID+int64(c)]; ok {
				inModel++
			}
		}
		if int(r.left) != inModel || (r.left == 0 && m != (Message{ID: m.ID})) {
			t.Fatalf("op %d: cell %d (%+v, %+v) holds %d copies, the model %d", pc, k, m, r, r.left, inModel)
		}
		if r.aud != 0 && r.left > 0 && r.left < int32(n) {
			for c := 0; c < n; c++ {
				w, bit := b.goneBit(m.ID + int64(c))
				_, live := model[m.ID+int64(c)]
				if (b.gone[w]&bit != 0) == live {
					t.Fatalf("op %d: copy %d's gone bit disagrees with the model (live %v)", pc, m.ID+int64(c), live)
				}
			}
			holes += n - int(r.left)
			first := uint64(m.ID) & (uint64(len(b.gone))*64 - 1)
			shapes.bitsWrapped = shapes.bitsWrapped || first+uint64(n) > uint64(len(b.gone))*64
		}
		if r.aud != 0 && i < b.head {
			shapes.recordWrapped = true
		}
	}
	if b.cells > 0 && want != next+1 {
		t.Fatalf("op %d: the last cell ends at ID %d, want %d", pc, want-1, next)
	}
	set := 0
	for _, w := range b.gone {
		set += bits.OnesCount64(w)
	}
	if holes != b.holes || set != b.holes {
		t.Fatalf("op %d: %d copies taken from live broadcasts, %d gone bits set, holes %d", pc, holes, set, b.holes)
	}
	shapes.wrapped = shapes.wrapped || b.head+b.cells > len(b.ring)
	span := int(b.nextID - b.idBase + 1)
	shapes.pinned = shapes.pinned || (len(model) > 0 && span-len(model) >= 64)
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
	{
		// A broadcast to four (IDs 1-4): Get copy 2, Take copy 3 and the
		// first, then the last, which leaves copy 2 holding the front cell.
		// Taking it after one more Add retires the record: the front moves
		// over all four IDs at once.
		name: "copies of a record",
		script: []byte{op(opAddAll, 6), op(opGet, 2), op(opTakeFront, 3), op(opTakeFront, 1),
			op(opTakeBack, 0), op(opGet, 1), op(opAdd, 0), op(opTakeFront, 1)},
		hit: func(s bufferShapes) bool { return s.tookCopy && s.gotCopy && s.holeRun == 4 },
	},
	{
		// A broadcast to eight and one to the evens of seven (positions
		// differ from receivers), then DropWhere of the even IDs: each
		// record keeps some of its copies.
		name: "drop across records",
		script: []byte{op(opAddAll, 14), op(opAddAll, 13), op(opDrop, 0), op(opGet, 1),
			op(opTakeFront, 3), op(opDrop, 1)},
		hit: func(s bufferShapes) bool { return s.dropAcross },
	},
	{
		// 40 Adds and 30 front Takes put the front at cell 30 of 64; 40
		// broadcasts to two follow, the last 16 in cells past the ring's
		// end. A copy of a wrapped record is taken, then the span drained.
		name: "records past the ring's end",
		script: slices.Concat(
			[]byte{op(opAdd, 31), op(opAdd, 7)},
			bytes.Repeat([]byte{op(opTakeFront, 1)}, 30),
			bytes.Repeat([]byte{op(opAddAll, 2)}, 40),
			[]byte{op(opTakeBack, 1), op(opGet, 1), op(opClear, 0), op(opAddAll, 2)}),
		hit: func(s bufferShapes) bool { return s.recordWrapped && s.clearWrapped && s.tookCopy },
	},
	{
		// 59 Adds, all taken: a broadcast to eight then gets IDs 60-67, and
		// taking its last copy marks bit 3 of a one-word gone, the record's
		// bits running past the word's end. Five broadcasts to sixteen
		// stretch the span past 64 IDs, so gone grows with its marks.
		name: "taken copies past the bit ring's end",
		script: slices.Concat(
			[]byte{op(opAdd, 31), op(opAdd, 26)},
			bytes.Repeat([]byte{op(opTakeFront, 1)}, 59),
			[]byte{op(opAddAll, 14), op(opTakeBack, 0), op(opTakeFront, 2)},
			bytes.Repeat([]byte{op(opAddAll, 30)}, 5),
			[]byte{op(opGet, 1), op(opTakeFront, 1), op(opDrop, 2), op(opClear, 31), op(opAddAll, 1)}),
		hit: func(s bufferShapes) bool { return s.bitsWrapped && s.goneRegrew },
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
// AddAll / Take / Get / DropWhere / DrainAll / Reset must leave the buffer
// equal to a plain map[int64]Message of copies after every op — each
// AddAll record one entry per receiver, IDs strictly increasing across
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
