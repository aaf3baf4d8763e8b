package sim

import "unsafe"

// BroadcastQueue is the outbox of a process that broadcasts one small record
// P per step. Queueing is O(1) on either path: records stay plain values
// until the window's send, where Send makes each one Message To All in a
// pooled *P box and the columnar SendColumnar publishes Pending as columns
// instead, never making a message at all. The System hands
// a completed window's boxes back through PayloadReclaimer (window mode
// only; in step mode the free list stays empty and every broadcast boxes a
// fresh record), so the steady-state window loop allocates nothing here.
type BroadcastQueue[P any] struct {
	pending []P
	outbox  []Message
	boxes   []*P
}

// Queue appends one broadcast-to-all record.
func (q *BroadcastQueue[P]) Queue(rec P) { q.pending = append(q.pending, rec) }

// Pending returns the queued records, oldest first, without consuming them.
func (q *BroadcastQueue[P]) Pending() []P { return q.pending }

// Discard drops the queued records: after publishing them, or on a reset.
// They are plain values (boxes are only taken at Send time), so discarding
// is a truncation.
func (q *BroadcastQueue[P]) Discard() { q.pending = q.pending[:0] }

// Send implements Process.Send for sender from: it boxes and flushes the
// queued records, one broadcast each. The returned slice is valid only until
// the next Send (the outbox capacity is recycled), per the Process contract.
func (q *BroadcastQueue[P]) Send(from ProcID) []Message {
	out := q.outbox[:0]
	for i := range q.pending {
		var box *P
		if k := len(q.boxes); k > 0 {
			box, q.boxes = q.boxes[k-1], q.boxes[:k-1]
		} else {
			box = new(P)
		}
		*box = q.pending[i]
		out = append(out, Message{From: from, To: All, Payload: box})
	}
	q.Discard()
	q.outbox = out[:0]
	return out
}

// RetainedBytes estimates the bytes the queue keeps: the pending records,
// the outbox and the pooled boxes.
func (q *BroadcastQueue[P]) RetainedBytes() int64 {
	var rec P
	size := int64(unsafe.Sizeof(rec))
	return size*int64(cap(q.pending)) + int64(unsafe.Sizeof(Message{}))*int64(cap(q.outbox)) +
		(8+size)*int64(cap(q.boxes))
}

// Reclaim implements PayloadReclaimer.ReclaimPayload: it takes back one of
// this queue's boxes and ignores every other payload.
func (q *BroadcastQueue[P]) Reclaim(payload any) {
	if box, ok := payload.(*P); ok {
		q.boxes = append(q.boxes, box)
	}
}
