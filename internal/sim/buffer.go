package sim

import "slices"

// All is the broadcast address. A Message a Process sends To All is one
// broadcast record: it stands for one copy to every processor alive at the
// send, and the copies take consecutive IDs in ascending receiver order — the
// IDs one send per receiver would get. The buffer and the window's batch
// hold the record once; every copy is delivered, traced, looked up and taken
// on its own, with To set to its receiver.
const All ProcID = -1

// Buffer is the message buffer of the model: the multiset of sent but not
// yet delivered messages. The adversary chooses delivery order, so the
// buffer supports lookup and removal by ID and whole-buffer scans in ID
// order. Every operation is per copy: a broadcast record (To All) is as many
// messages as it has receivers, each with its own ID.
//
// Storage is one power-of-two ring of cells in ID order, one per Add or
// AddAll: a unicast message, or a broadcast record whose copies share the
// cell's Message (ID the first copy's, To All). Beside each cell a record
// counts the copies left and names the receiver list (auds) of a broadcast.
// A cell whose copies are all gone keeps only its ID, which orders the
// cells for the lookup by binary search. A steady-state Add/Take cycle
// allocates nothing, and the front advances as the oldest cells empty;
// window mode drains the buffer every window, so the ring stays one window
// wide. The ring is also where a window's batch lives: WindowSend moves the
// live cells to the ring's start (linearize) and returns the cells its sends
// filled. A copy taken out of a broadcast that still holds others is marked
// in gone, a bit ring over IDs that is only built, and only read, once that
// happens.
//
// Tradeoff: Get and Take cost a binary search over the cells, whole-buffer
// scans (Pending, IDs, DropWhere) O(cells + copies), and a cell 56 B. A step
// schedule that withholds one old message pins the front and pays a cell
// for every later send. Two schedulers here do: adversary.NewStarveOne for
// the whole run (its test stops after 200 steps) and paxos.DuelScheduler for
// each withheld Accept until a majority promises a higher ballot.
// Everything else drains the buffer every window or every Lockstep cycle.
type Buffer struct {
	// nextID is the last ID assigned; idBase is the first ID of the front
	// cell, or nextID+1 when the buffer is empty.
	nextID int64
	idBase int64
	// The live cells are ring[head], ..., ring[head+cells-1] (mod the ring),
	// recs their records; cells outside are zero.
	head, cells int
	ring        []Message
	recs        []record
	// live counts the buffered copies. gone holds bit id mod 64*len(gone)
	// for each copy taken from a broadcast that still holds others, and
	// holes counts those bits; gone covers the ID span while holes > 0.
	live  int
	gone  []uint64
	holes int
	// auds are the receiver lists of the buffered broadcasts, each ascending;
	// the System passes one list until a crash changes it.
	auds [][]ProcID
}

// record is the bookkeeping of one cell.
type record struct {
	left int32 // copies still buffered; 0 once the cell is dead
	aud  int32 // 1 + the index in auds of a broadcast's receivers; 0 for a unicast
}

// copies returns how many IDs the cell of record r spans.
func (b *Buffer) copies(r record) int {
	if r.aud == 0 {
		return 1
	}
	return len(b.auds[r.aud-1])
}

// rank returns the position of receiver q among the receivers of broadcast
// record r, or -1 if it is not one, for an n-processor system.
func (b *Buffer) rank(r record, q ProcID, n int) int {
	to := b.auds[r.aud-1]
	if len(to) == n { // every processor: position is identity
		return int(q)
	}
	if c, ok := slices.BinarySearch(to, q); ok {
		return c
	}
	return -1
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer {
	return &Buffer{idBase: 1}
}

// at returns the ring index of the k-th live cell.
func (b *Buffer) at(k int) int { return (b.head + k) & (len(b.ring) - 1) }

// copyAt returns copy c of the cell at ring index i.
func (b *Buffer) copyAt(i, c int) Message {
	m := b.ring[i]
	if r := b.recs[i]; r.aud != 0 {
		m.ID, m.To = m.ID+int64(c), b.auds[r.aud-1][c]
	}
	return m
}

// find returns the ring index of the cell holding copy id and the copy's
// position in it, or ok = false if no buffered copy has that ID.
func (b *Buffer) find(id int64) (i, c int, ok bool) {
	if id < b.idBase || id > b.nextID {
		return 0, 0, false
	}
	lo, hi := 0, b.cells // the last cell whose first ID is <= id; cell 0's is idBase
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if b.ring[b.at(mid)].ID <= id {
			lo = mid
		} else {
			hi = mid
		}
	}
	i = b.at(lo)
	r := b.recs[i]
	c = int(id - b.ring[i].ID)
	return i, c, r.left > 0 && c < b.copies(r) && !b.taken(r, id)
}

// taken reports whether copy id of the cell of record r was taken while
// others remain.
func (b *Buffer) taken(r record, id int64) bool {
	if b.holes == 0 || r.aud == 0 || int(r.left) == b.copies(r) {
		return false
	}
	w, bit := b.goneBit(id)
	return b.gone[w]&bit != 0
}

// goneBit returns the word and bit of id in gone.
func (b *Buffer) goneBit(id int64) (int, uint64) {
	k := uint64(id) & (uint64(len(b.gone))*64 - 1)
	return int(k >> 6), 1 << (k & 63)
}

// fitGone sizes gone for holes across the ID span [idBase, last], carrying
// the marks of the IDs up to upto over.
func (b *Buffer) fitGone(last, upto int64) {
	span := last - b.idBase + 1
	if int64(len(b.gone))*64 >= span {
		return
	}
	words := 1
	for int64(words)*64 < span {
		words *= 2
	}
	old := b.gone
	b.gone = make([]uint64, words)
	if b.holes == 0 {
		return
	}
	oldMask := uint64(len(old))*64 - 1
	for id := b.idBase; id <= upto; id++ {
		if k := uint64(id) & oldMask; old[k>>6]&(1<<(k&63)) != 0 {
			w, bit := b.goneBit(id)
			b.gone[w] |= bit
		}
	}
}

// forgetHoles clears the gone marks of the copies of the broadcast at ring
// index i, which is dying.
func (b *Buffer) forgetHoles(i int) {
	first := b.ring[i].ID
	for id := first; id < first+int64(b.copies(b.recs[i])); id++ {
		if w, bit := b.goneBit(id); b.gone[w]&bit != 0 {
			b.gone[w] &^= bit
			b.holes--
		}
	}
}

// kill empties the cell at ring index i, whose copies are all gone: its
// payload goes to the GC, and only its ID stays, to order the cells.
func (b *Buffer) kill(i int) {
	if b.holes > 0 && b.recs[i].aud != 0 {
		b.forgetHoles(i)
	}
	b.ring[i] = Message{ID: b.ring[i].ID}
	b.recs[i].left = 0
}

// remove takes copy id out of the cell at ring index i, which holds it.
func (b *Buffer) remove(i int, id int64) {
	b.live--
	if b.recs[i].left == 1 {
		b.kill(i)
		return
	}
	b.recs[i].left--
	b.fitGone(b.nextID, b.nextID)
	w, bit := b.goneBit(id)
	b.gone[w] |= bit
	b.holes++
}

// popFront drops the dead cells at the front and moves idBase to the first
// live one.
func (b *Buffer) popFront() {
	for b.cells > 0 && b.recs[b.head].left == 0 {
		b.ring[b.head], b.recs[b.head] = Message{}, record{}
		b.head = b.at(1)
		b.cells--
	}
	if b.cells == 0 {
		b.idBase = b.nextID + 1
		b.forgetAuds()
	} else {
		b.idBase = b.ring[b.head].ID
	}
}

// forgetAuds drops the receiver lists of an empty buffer.
func (b *Buffer) forgetAuds() {
	clear(b.auds)
	b.auds = b.auds[:0]
}

// linearize moves the live cells to the ring's start (head 0), so the Adds
// that follow fill ring[cells:] in ID order: grow keeps that layout, and no
// Add wraps while the cells fit. An empty buffer only rewinds its front;
// cells left behind by step mode are rotated into place.
func (b *Buffer) linearize() {
	if b.head == 0 {
		return
	}
	if b.cells > 0 {
		rotate(b.ring, b.head)
		rotate(b.recs, b.head)
	}
	b.head = 0
}

// rotate moves s[k:] in front of s[:k].
func rotate[T any](s []T, k int) {
	slices.Reverse(s[:k])
	slices.Reverse(s[k:])
	slices.Reverse(s)
}

// grow resizes the ring to a power of two holding need cells and moves the
// live cells to its start.
func (b *Buffer) grow(need int) {
	newCap := 64
	for newCap < need {
		newCap *= 2
	}
	ring, recs := make([]Message, newCap), make([]record, newCap)
	k := copy(ring, b.ring[b.head:])
	copy(ring[k:], b.ring[:b.head])
	copy(recs, b.recs[b.head:])
	copy(recs[k:], b.recs[:b.head])
	b.ring, b.recs, b.head = ring, recs, 0
}

// push stores m, whose ID is the next one, in a new cell behind the live
// ones.
func (b *Buffer) push(m Message, r record) {
	if b.cells == len(b.ring) {
		b.grow(b.cells + 1)
	}
	if b.holes > 0 {
		b.fitGone(b.nextID+int64(r.left), b.nextID)
	}
	i := b.at(b.cells)
	b.ring[i], b.recs[i] = m, r
	b.cells++
	b.nextID += int64(r.left)
	b.live += int(r.left)
}

// Add stores m, addressed to one processor, under a fresh sequence ID and
// returns the stored message (with ID populated).
func (b *Buffer) Add(m Message) Message {
	m.ID = b.nextID + 1
	b.push(m, record{left: 1})
	return m
}

// AddAll stores m as a broadcast record to the receivers to, which must be
// ascending and distinct: one copy each, under fresh consecutive IDs in that
// order. The buffer keeps to, which must not change while the record is
// buffered. It returns the record: To All, ID the first copy's. An empty to
// stores nothing.
func (b *Buffer) AddAll(m Message, to []ProcID) Message {
	m.ID, m.To = b.nextID+1, All
	if len(to) == 0 {
		m.ID = 0
		return m
	}
	if k := len(b.auds); k == 0 || len(b.auds[k-1]) != len(to) || &b.auds[k-1][0] != &to[0] {
		b.auds = append(b.auds, to)
	}
	b.push(m, record{left: int32(len(to)), aud: int32(len(b.auds))})
	return m
}

// Take removes and returns the message with the given ID.
func (b *Buffer) Take(id int64) (Message, bool) {
	i, c, ok := b.find(id)
	if !ok {
		return Message{}, false
	}
	m := b.copyAt(i, c)
	b.remove(i, id)
	b.popFront()
	return m, true
}

// Get returns the message with the given ID without removing it.
func (b *Buffer) Get(id int64) (Message, bool) {
	i, c, ok := b.find(id)
	if !ok {
		return Message{}, false
	}
	return b.copyAt(i, c), true
}

// clearSpan zeroes the live cells, releasing their payload references to the
// GC, and leaves the ring empty with its front at cell 0.
func (b *Buffer) clearSpan() {
	k := min(b.cells, len(b.ring)-b.head) // cells before the ring's end
	clear(b.ring[b.head : b.head+k])
	clear(b.recs[b.head : b.head+k])
	clear(b.ring[:b.cells-k])
	clear(b.recs[:b.cells-k])
	if b.holes > 0 {
		clear(b.gone)
		b.holes = 0
	}
	b.forgetAuds()
	b.head, b.cells, b.live = 0, 0, 0
}

// Reset rewinds the buffer to its just-constructed state — no messages, ID
// sequence restarted — keeping the ring, so a recycled trial reuses it.
func (b *Buffer) Reset() {
	b.clearSpan()
	b.nextID, b.idBase = 0, 1
}

// DrainAll removes every buffered message in one sweep over the live cells
// — one window's batch in window mode, however large earlier windows grew
// the ring. Unlike Reset it preserves the ID sequence (nextID keeps
// counting, idBase advances past it), so IDs stay monotone across windows.
// drainWindow retires a window batch with it; callers must know the buffer
// holds nothing worth keeping.
func (b *Buffer) DrainAll() {
	b.clearSpan()
	b.idBase = b.nextID + 1
}

// dropFrom removes every buffered copy whose ID is from or later, keeping
// the ID sequence: the cells a window's sends filled, when step mode left
// older messages in front of them.
func (b *Buffer) dropFrom(from int64) {
	for b.cells > 0 {
		i := b.at(b.cells - 1)
		if b.ring[i].ID < from {
			break
		}
		if b.recs[i].left > 0 {
			b.live -= int(b.recs[i].left)
			b.kill(i)
		}
		b.ring[i], b.recs[i] = Message{}, record{}
		b.cells--
	}
	b.popFront()
}

// Len returns the number of buffered messages.
func (b *Buffer) Len() int {
	return b.live
}

// appendCell appends the buffered copies of the k-th live cell to dst, in
// ID order.
func (b *Buffer) appendCell(dst []Message, k int) []Message {
	i := b.at(k)
	r := b.recs[i]
	for c := 0; r.left > 0 && c < b.copies(r); c++ {
		if !b.taken(r, b.ring[i].ID+int64(c)) {
			dst = append(dst, b.copyAt(i, c))
		}
	}
	return dst
}

// Pending returns all buffered messages in insertion order. The returned
// slice is freshly allocated.
func (b *Buffer) Pending() []Message {
	out := make([]Message, 0, b.live)
	for k := 0; k < b.cells; k++ {
		out = b.appendCell(out, k)
	}
	return out
}

// IDs returns the IDs of all buffered messages, ascending.
func (b *Buffer) IDs() []int64 {
	ids := make([]int64, 0, b.live)
	for k := 0; k < b.cells; k++ {
		i := b.at(k)
		r := b.recs[i]
		for c := 0; r.left > 0 && c < b.copies(r); c++ {
			if id := b.ring[i].ID + int64(c); !b.taken(r, id) {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// DropWhere removes every buffered message for which pred returns true and
// reports how many were removed. Window mode uses this to discard the
// undelivered remainder of a window (those messages are never delivered —
// the senders outside S_i are the "faulty for this window" processors).
func (b *Buffer) DropWhere(pred func(Message) bool) int {
	dropped := 0
	for k := 0; k < b.cells; k++ {
		i := b.at(k)
		first, n := b.ring[i].ID, b.copies(b.recs[i])
		for c := 0; c < n && b.recs[i].left > 0; c++ {
			if id := first + int64(c); !b.taken(b.recs[i], id) && pred(b.copyAt(i, c)) {
				b.remove(i, id)
				dropped++
			}
		}
	}
	b.popFront()
	return dropped
}
