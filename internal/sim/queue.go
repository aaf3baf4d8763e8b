package sim

// BroadcastQueue is the outbox of a process that broadcasts one small record
// P per step. Queueing is O(1) on either path: records stay plain values
// until the window's send, where Send materializes each into n Messages
// sharing one pooled *P box and the columnar SendColumnar publishes Pending
// as columns instead, never materializing a copy at all. The System hands
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

// Send implements Process.Send for sender from of n processors: it
// materializes and flushes the queued records. The returned slice is valid
// only until the next Send (the outbox capacity is recycled), per the
// Process contract.
func (q *BroadcastQueue[P]) Send(from ProcID, n int) []Message {
	out := q.outbox[:0]
	for i := range q.pending {
		var box *P
		if k := len(q.boxes); k > 0 {
			box, q.boxes = q.boxes[k-1], q.boxes[:k-1]
		} else {
			box = new(P)
		}
		*box = q.pending[i]
		var payload any = box
		for to := 0; to < n; to++ {
			out = append(out, Message{From: from, To: ProcID(to), Payload: payload})
		}
	}
	q.Discard()
	q.outbox = out[:0]
	return out
}

// Reclaim implements PayloadReclaimer.ReclaimPayload: it takes back one of
// this queue's boxes and ignores every other payload.
func (q *BroadcastQueue[P]) Reclaim(payload any) {
	if box, ok := payload.(*P); ok {
		q.boxes = append(q.boxes, box)
	}
}
