package sim

import "slices"

// Buffer is the message buffer of the model: the multiset of sent but not
// yet delivered messages. The adversary chooses delivery order, so the
// buffer supports lookup and removal by ID and whole-buffer scans in ID
// order.
//
// Storage is one power-of-two ring of messages over the live ID span
// [idBase, nextID]: IDs are assigned in sequence, so ring[(head+k)&mask] is
// message idBase+k, and the zero Message (ID 0 is never assigned) marks a
// cell whose message is gone. Add is one store, Get and Take one index and an
// ID compare, and a steady-state Add/Take cycle allocates nothing. The front
// advances as the oldest messages are consumed; window mode drains the
// buffer every window, so the span stays one window wide. The ring is also
// where a window's batch lives: WindowSend moves the span to the ring's start
// (linearize) and returns the cells its sends filled (tail).
//
// Tradeoff: memory and whole-buffer scans (Pending, IDs, DropWhere) are
// O(ID span), not O(live messages), and a cell is a whole Message (48 B): a
// step schedule that withholds one old message pins idBase and pays a cell
// for every later ID. Two schedulers here do: adversary.NewStarveOne for the
// whole run (its test stops after 200 steps) and paxos.DuelScheduler for
// each withheld Accept until a majority promises a higher ballot (E11's
// duel at n = 5 never spans more than 15 IDs). Everything else drains the
// buffer every window or every Lockstep cycle.
type Buffer struct {
	nextID int64
	// idBase is the smallest ID that may still be live; ring[head] is its
	// cell. Cells outside the span are zero.
	idBase int64
	head   int
	ring   []Message
	live   int
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer {
	return &Buffer{idBase: 1}
}

// cell returns the ring cell holding message id, or nil if none does.
func (b *Buffer) cell(id int64) *Message {
	if id < b.idBase || id > b.nextID {
		return nil
	}
	if c := &b.ring[(b.head+int(id-b.idBase))&(len(b.ring)-1)]; c.ID == id {
		return c
	}
	return nil
}

// span returns the number of cells in the live ID span [idBase, nextID].
func (b *Buffer) span() int { return int(b.nextID - b.idBase + 1) }

// linearize moves the live span to the ring's start (head 0), so the Adds
// that follow fill ring[span():] in ID order: grow keeps that layout, and no
// Add wraps while the span fits. An empty buffer only rewinds its front; a
// span left behind by step mode is rotated into place.
func (b *Buffer) linearize() {
	if b.head == 0 {
		return
	}
	if b.live > 0 {
		slices.Reverse(b.ring[:b.head])
		slices.Reverse(b.ring[b.head:])
		slices.Reverse(b.ring)
	}
	b.head = 0
}

// tail returns the last k cells of the live span of a linear ring (head 0):
// the messages of the last k Adds, by ID, in place.
func (b *Buffer) tail(k int) []Message {
	end := b.span()
	return b.ring[end-k : end : end]
}

// grow resizes the ring to a power of two holding span cells and moves the
// live span to its start.
func (b *Buffer) grow(span int) {
	newCap := 64
	for newCap < span {
		newCap *= 2
	}
	grown := make([]Message, newCap)
	k := copy(grown, b.ring[b.head:])
	copy(grown[k:], b.ring[:b.head])
	b.ring, b.head = grown, 0
}

// Add stores m under a fresh sequence ID and returns the stored message
// (with ID populated).
func (b *Buffer) Add(m Message) Message {
	b.nextID++
	m.ID = b.nextID
	span := b.span()
	if span > len(b.ring) {
		b.grow(span)
	}
	b.ring[(b.head+span-1)&(len(b.ring)-1)] = m
	b.live++
	return m
}

// Take removes and returns the message with the given ID.
func (b *Buffer) Take(id int64) (Message, bool) {
	c := b.cell(id)
	if c == nil {
		return Message{}, false
	}
	m := *c
	*c = Message{} // release payload references to the GC
	b.live--
	// Pop consumed cells off the front: the span starts at the oldest live ID.
	mask := len(b.ring) - 1
	for b.idBase <= b.nextID && b.ring[b.head].ID == 0 {
		b.head = (b.head + 1) & mask
		b.idBase++
	}
	return m, true
}

// Get returns the message with the given ID without removing it.
func (b *Buffer) Get(id int64) (Message, bool) {
	c := b.cell(id)
	if c == nil {
		return Message{}, false
	}
	return *c, true
}

// clearSpan zeroes the live span, releasing its payload references to the
// GC, and leaves the ring empty with its front at cell 0.
func (b *Buffer) clearSpan() {
	span := b.span()
	k := min(span, len(b.ring)-b.head) // cells before the ring's end
	clear(b.ring[b.head : b.head+k])
	clear(b.ring[:span-k])
	b.head, b.live = 0, 0
}

// Reset rewinds the buffer to its just-constructed state — no messages, ID
// sequence restarted — keeping the ring, so a recycled trial reuses it.
func (b *Buffer) Reset() {
	b.clearSpan()
	b.nextID, b.idBase = 0, 1
}

// DrainAll removes every buffered message in one sweep over the live ID
// span — one window's batch in window mode, however large earlier windows
// grew the ring. Unlike Reset it preserves the ID sequence (nextID keeps
// counting, idBase advances past it), so IDs stay monotone across windows.
// drainWindow retires a fully-buffered window batch with it; callers must
// know the buffer holds nothing worth keeping.
func (b *Buffer) DrainAll() {
	b.clearSpan()
	b.idBase = b.nextID + 1
}

// Len returns the number of buffered messages.
func (b *Buffer) Len() int {
	return b.live
}

// Pending returns all buffered messages in insertion order. The returned
// slice is freshly allocated.
func (b *Buffer) Pending() []Message {
	out := make([]Message, 0, b.live)
	for id := b.idBase; id <= b.nextID; id++ {
		if c := b.cell(id); c != nil {
			out = append(out, *c)
		}
	}
	return out
}

// IDs returns the IDs of all buffered messages, ascending.
func (b *Buffer) IDs() []int64 {
	ids := make([]int64, 0, b.live)
	for id := b.idBase; id <= b.nextID; id++ {
		if b.cell(id) != nil {
			ids = append(ids, id)
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
	for id := b.idBase; id <= b.nextID; id++ {
		if c := b.cell(id); c != nil && pred(*c) {
			b.Take(id)
			dropped++
		}
	}
	return dropped
}
