package sim

// Buffer is the message buffer of the model: the multiset of sent but not
// yet delivered messages. The adversary chooses delivery order, so the
// buffer supports lookup by ID, by recipient, and by (recipient, sender).
//
// Storage layout (the simulator's innermost data structure):
//
//   - messages live in an arena of slots recycled through a free list, so a
//     steady-state Add/Take cycle performs no allocation;
//   - each slot is linked into an intrusive doubly-linked queue per
//     recipient, so PendingFor/OldestFor cost O(pending for that recipient)
//     instead of O(all messages ever buffered);
//   - IDs are monotone, so the ID -> slot index is a power-of-two ring over
//     the live ID span [idBase, nextID] rather than a map, eliminating the
//     per-Add map churn of the original implementation. The front of the
//     ring advances as the oldest messages are consumed; window mode drains
//     the buffer every window, so the span stays one window wide.
//
// Tradeoff: ring size and whole-buffer scans (Pending, IDs, DropWhere) are
// O(ID span), not O(live messages). A step-mode schedule that buffers a
// message and never consumes it (e.g. a starvation scheduler) pins idBase
// and lets the span grow with every Add. All schedulers in this repository
// either drain the buffer (window mode, Lockstep) or run short bounded
// executions, where the span stays within a constant factor of live.
type Buffer struct {
	nextID int64
	// idBase is the smallest ID that may still be live; ring[(head+k)&mask]
	// holds the arena index of message idBase+k, or -1 once it is gone.
	idBase int64
	head   int
	ring   []int32

	arena []bufSlot
	free  []int32

	// heads/tails index the per-recipient queues (-1 = empty). Grown on
	// demand to max recipient ID + 1.
	heads, tails []int32

	live int
}

// bufSlot is one arena cell: the stored message plus intrusive queue links.
type bufSlot struct {
	msg        Message
	next, prev int32
}

// NewBuffer returns an empty buffer. Recipient queues grow on demand; use
// NewBufferFor when the processor count is known up front.
func NewBuffer() *Buffer {
	return &Buffer{idBase: 1}
}

// NewBufferFor returns an empty buffer with recipient queues preallocated
// for processors 0..n-1.
func NewBufferFor(n int) *Buffer {
	b := NewBuffer()
	b.growQueues(n - 1)
	return b
}

// growQueues ensures the queue arrays cover recipient p.
func (b *Buffer) growQueues(p int) {
	for len(b.heads) <= p {
		b.heads = append(b.heads, -1)
		b.tails = append(b.tails, -1)
	}
}

// slotFor returns the arena index of message id, or -1.
func (b *Buffer) slotFor(id int64) int32 {
	if id < b.idBase || id > b.nextID || len(b.ring) == 0 {
		return -1
	}
	return b.ring[(b.head+int(id-b.idBase))&(len(b.ring)-1)]
}

// ringAppend records arena index si for the ID just assigned (nextID).
func (b *Buffer) ringAppend(si int32) {
	span := int(b.nextID - b.idBase + 1)
	if span > len(b.ring) {
		// Grow to the next power of two and linearize.
		newCap := 64
		for newCap < span {
			newCap *= 2
		}
		grown := make([]int32, newCap)
		for i := 0; i < span-1; i++ {
			grown[i] = b.ring[(b.head+i)&(len(b.ring)-1)]
		}
		for i := span - 1; i < newCap; i++ {
			grown[i] = -1
		}
		b.ring, b.head = grown, 0
	}
	b.ring[(b.head+span-1)&(len(b.ring)-1)] = si
}

// advance pops dead entries off the front of the ring so the ID span tracks
// the oldest live message.
func (b *Buffer) advance() {
	mask := len(b.ring) - 1
	for b.idBase <= b.nextID && b.ring[b.head] < 0 {
		b.head = (b.head + 1) & mask
		b.idBase++
	}
}

// Add assigns the next sequence ID to m, stores it, and returns the stored
// message (with ID populated).
func (b *Buffer) Add(m Message) Message {
	b.nextID++
	m.ID = b.nextID

	var si int32
	if n := len(b.free); n > 0 {
		si = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		b.arena = append(b.arena, bufSlot{})
		si = int32(len(b.arena) - 1)
	}
	sl := &b.arena[si]
	sl.msg = m
	sl.next, sl.prev = -1, -1

	if p := int(m.To); p >= 0 {
		b.growQueues(p)
		if t := b.tails[p]; t >= 0 {
			b.arena[t].next = si
			sl.prev = t
		} else {
			b.heads[p] = si
		}
		b.tails[p] = si
	}
	b.ringAppend(si)
	b.live++
	return m
}

// unlink removes slot si from its recipient queue and recycles it.
func (b *Buffer) unlink(si int32) {
	sl := &b.arena[si]
	if p := int(sl.msg.To); p >= 0 && p < len(b.heads) {
		if sl.prev >= 0 {
			b.arena[sl.prev].next = sl.next
		} else if b.heads[p] == si {
			b.heads[p] = sl.next
		}
		if sl.next >= 0 {
			b.arena[sl.next].prev = sl.prev
		} else if b.tails[p] == si {
			b.tails[p] = sl.prev
		}
	}
	sl.msg = Message{} // release payload references to the GC
	sl.next, sl.prev = -1, -1
	b.free = append(b.free, si)
}

// Reset rewinds the buffer to its just-constructed state — no messages, ID
// sequence restarted — without freeing the arena, ring, free list, or
// recipient queues, so a recycled trial reuses all of them. Payload
// references in dead slots were already released on Take/unlink; slots still
// live are cleared here.
func (b *Buffer) Reset() {
	for i := range b.arena {
		sl := &b.arena[i]
		sl.msg = Message{}
		sl.next, sl.prev = -1, -1
	}
	b.free = b.free[:0]
	for i := len(b.arena) - 1; i >= 0; i-- {
		b.free = append(b.free, int32(i))
	}
	for i := range b.ring {
		b.ring[i] = -1
	}
	for i := range b.heads {
		b.heads[i] = -1
		b.tails[i] = -1
	}
	b.nextID = 0
	b.idBase = 1
	b.head = 0
	b.live = 0
}

// DrainAll removes every buffered message in one sweep over the live ID
// span — one window's batch in window mode, however large earlier windows
// grew the arena. Unlike Reset it preserves the ID sequence — nextID keeps
// counting and idBase advances past it — so IDs stay globally monotone
// across windows. drainWindow uses this to retire a fully-buffered window
// batch without per-ID Take calls; callers must know the buffer holds
// nothing worth keeping. Slots are freed newest first, so the next window's
// Adds reuse them in this window's order.
func (b *Buffer) DrainAll() {
	mask := len(b.ring) - 1
	for k := int(b.nextID - b.idBase); k >= 0; k-- {
		e := &b.ring[(b.head+k)&mask]
		if *e < 0 {
			continue
		}
		sl := &b.arena[*e]
		if p := int(sl.msg.To); p >= 0 && p < len(b.heads) {
			b.heads[p], b.tails[p] = -1, -1
		}
		sl.msg = Message{} // release payload references to the GC
		sl.next, sl.prev = -1, -1
		b.free = append(b.free, *e)
		*e = -1
	}
	b.idBase = b.nextID + 1
	b.head = 0
	b.live = 0
}

// Take removes and returns the message with the given ID.
func (b *Buffer) Take(id int64) (Message, bool) {
	si := b.slotFor(id)
	if si < 0 {
		return Message{}, false
	}
	m := b.arena[si].msg
	b.ring[(b.head+int(id-b.idBase))&(len(b.ring)-1)] = -1
	b.unlink(si)
	b.live--
	b.advance()
	return m, true
}

// Get returns the message with the given ID without removing it.
func (b *Buffer) Get(id int64) (Message, bool) {
	si := b.slotFor(id)
	if si < 0 {
		return Message{}, false
	}
	return b.arena[si].msg, true
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
		if si := b.slotFor(id); si >= 0 {
			out = append(out, b.arena[si].msg)
		}
	}
	return out
}

// PendingFor returns the buffered messages addressed to p, in insertion
// order.
func (b *Buffer) PendingFor(p ProcID) []Message {
	var out []Message
	if int(p) < 0 || int(p) >= len(b.heads) {
		// Out-of-range recipients have no queue; scan the span (cold path).
		for id := b.idBase; id <= b.nextID; id++ {
			if si := b.slotFor(id); si >= 0 && b.arena[si].msg.To == p {
				out = append(out, b.arena[si].msg)
			}
		}
		return out
	}
	for si := b.heads[p]; si >= 0; si = b.arena[si].next {
		out = append(out, b.arena[si].msg)
	}
	return out
}

// OldestFor returns the oldest buffered message addressed to p.
func (b *Buffer) OldestFor(p ProcID) (Message, bool) {
	if int(p) < 0 || int(p) >= len(b.heads) {
		// Out-of-range recipients have no queue; scan the span (cold path,
		// same fallback as PendingFor).
		for id := b.idBase; id <= b.nextID; id++ {
			if si := b.slotFor(id); si >= 0 && b.arena[si].msg.To == p {
				return b.arena[si].msg, true
			}
		}
		return Message{}, false
	}
	if b.heads[p] < 0 {
		return Message{}, false
	}
	return b.arena[b.heads[p]].msg, true
}

// DropWhere removes every buffered message for which pred returns true and
// reports how many were removed. Window mode uses this to discard the
// undelivered remainder of a window (those messages are never delivered —
// the senders outside S_i are the "faulty for this window" processors).
func (b *Buffer) DropWhere(pred func(Message) bool) int {
	dropped := 0
	for id := b.idBase; id <= b.nextID; id++ {
		if si := b.slotFor(id); si >= 0 && pred(b.arena[si].msg) {
			b.Take(id)
			dropped++
		}
	}
	return dropped
}

// IDs returns the IDs of all buffered messages, ascending.
func (b *Buffer) IDs() []int64 {
	ids := make([]int64, 0, b.live)
	for id := b.idBase; id <= b.nextID; id++ {
		if b.slotFor(id) >= 0 {
			ids = append(ids, id)
		}
	}
	return ids
}
