package sim

import (
	"testing"
	"testing/quick"
)

func TestBufferAddAssignsSequentialIDs(t *testing.T) {
	b := NewBuffer()
	m1 := b.Add(Message{From: 0, To: 1})
	m2 := b.Add(Message{From: 1, To: 0})
	if m1.ID != 1 || m2.ID != 2 {
		t.Fatalf("ids %d, %d", m1.ID, m2.ID)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestBufferTakeRemoves(t *testing.T) {
	b := NewBuffer()
	m := b.Add(Message{From: 0, To: 1})
	got, ok := b.Take(m.ID)
	if !ok || got.From != 0 || got.To != 1 {
		t.Fatalf("Take = %+v, %v", got, ok)
	}
	if _, ok := b.Take(m.ID); ok {
		t.Fatal("double Take succeeded")
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after take", b.Len())
	}
}

func TestBufferGetDoesNotRemove(t *testing.T) {
	b := NewBuffer()
	m := b.Add(Message{From: 0, To: 1})
	if _, ok := b.Get(m.ID); !ok {
		t.Fatal("Get failed")
	}
	if b.Len() != 1 {
		t.Fatal("Get removed the message")
	}
}

func TestBufferDropWhere(t *testing.T) {
	b := NewBuffer()
	for i := 0; i < 10; i++ {
		b.Add(Message{From: ProcID(i % 2), To: 3})
	}
	dropped := b.DropWhere(func(m Message) bool { return m.From == 0 })
	if dropped != 5 || b.Len() != 5 {
		t.Fatalf("dropped %d, len %d", dropped, b.Len())
	}
	for _, m := range b.Pending() {
		if m.From == 0 {
			t.Fatal("dropped message still pending")
		}
	}
}

func TestBufferIDsSorted(t *testing.T) {
	b := NewBuffer()
	for i := 0; i < 20; i++ {
		b.Add(Message{From: 0, To: 1})
	}
	b.DropWhere(func(m Message) bool { return m.ID%3 == 0 })
	ids := b.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestBufferCompaction(t *testing.T) {
	// Heavy add/take churn must not leak storage: the ring tracks the live
	// ID span (one message here).
	b := NewBuffer()
	for i := 0; i < 10000; i++ {
		m := b.Add(Message{From: 0, To: 1})
		if _, ok := b.Take(m.ID); !ok {
			t.Fatal("lost message")
		}
		if i%100 == 0 {
			b.Pending()
		}
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d", b.Len())
	}
	if len(b.ring) > 1000 {
		t.Fatalf("ring leaked: %d entries for empty buffer", len(b.ring))
	}
}

func TestBufferAddTakeAllocFree(t *testing.T) {
	// The ring makes a steady-state Add/Take cycle allocation-free (the
	// original map-backed buffer churned on every Add).
	b := NewBuffer()
	for i := 0; i < 128; i++ { // warm up the ring
		m := b.Add(Message{From: 0, To: 1})
		b.Take(m.ID)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m := b.Add(Message{From: 0, To: 1, Payload: nil})
		if _, ok := b.Take(m.ID); !ok {
			t.Fatal("lost message")
		}
	})
	if allocs != 0 {
		t.Fatalf("Add+Take allocates %.1f per op, want 0", allocs)
	}
}

func TestBufferWindowCycleAllocFree(t *testing.T) {
	// A full window-shaped cycle — n*n Adds, then receiver-major Takes, the
	// order window delivery consumes a sender-major batch in — must also be
	// allocation-free once warm.
	const n = 8
	b := NewBuffer()
	ids := make([]int64, 0, n*n)
	cycle := func() {
		ids = ids[:0]
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				ids = append(ids, b.Add(Message{From: ProcID(from), To: ProcID(to)}).ID)
			}
		}
		for to := 0; to < n; to++ {
			for from := 0; from < n; from++ {
				id := ids[from*n+to]
				if m, ok := b.Get(id); !ok || m.To != ProcID(to) {
					t.Fatalf("Get(%d) = %+v, %v", id, m, ok)
				}
				b.Take(id)
			}
		}
		if b.Len() != 0 {
			t.Fatalf("Len = %d after the cycle", b.Len())
		}
	}
	cycle() // warm up
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("window cycle allocates %.1f per op, want 0", allocs)
	}
}

func TestBufferPendingMatchesLenProperty(t *testing.T) {
	check := func(ops []uint8) bool {
		b := NewBuffer()
		var live []int64
		for _, op := range ops {
			if op%3 == 0 || len(live) == 0 {
				m := b.Add(Message{From: ProcID(op % 4), To: ProcID(op % 5)})
				live = append(live, m.ID)
			} else {
				idx := int(op) % len(live)
				id := live[idx]
				live = append(live[:idx], live[idx+1:]...)
				if _, ok := b.Take(id); !ok {
					return false
				}
			}
		}
		return b.Len() == len(live) && len(b.Pending()) == len(live)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
