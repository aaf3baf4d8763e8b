package sim

import (
	"math/bits"
	"testing"
)

// TestColumnSetPublish pins the sorted find-or-insert: columns come out
// ordered by (Round, Class, Val) regardless of publish order, re-publishing
// an existing key reuses its column, and the senders union tracks every
// publisher.
func TestColumnSetPublish(t *testing.T) {
	var cs ColumnSet
	cs.reset(2) // two words: senders up to 128
	pubs := []struct {
		from       ProcID
		round      int
		class, val uint8
	}{
		{70, 2, 1, 0},
		{3, 1, 1, 1},
		{64, 1, 1, 0},
		{5, 1, 2, ValNeutral},
		{3, 2, 1, 0}, // same key as the first: shared column
		{0, 1, 1, 1}, // same key as the second
	}
	for _, p := range pubs {
		cs.publish(p.from, p.round, p.class, p.val)
	}
	cols := cs.Columns()
	want := []struct {
		round      int
		class, val uint8
		bitsOf     []ProcID
	}{
		{1, 1, 0, []ProcID{64}},
		{1, 1, 1, []ProcID{0, 3}},
		{1, 2, ValNeutral, []ProcID{5}},
		{2, 1, 0, []ProcID{3, 70}},
	}
	if len(cols) != len(want) {
		t.Fatalf("got %d columns, want %d", len(cols), len(want))
	}
	for i, w := range want {
		c := &cols[i]
		if c.Round != w.round || c.Class != w.class || c.Val != w.val {
			t.Fatalf("column %d = (%d,%d,%d), want (%d,%d,%d)",
				i, c.Round, c.Class, c.Val, w.round, w.class, w.val)
		}
		var popc int
		for wd := 0; wd < cs.Words(); wd++ {
			popc += bits.OnesCount64(c.Word(wd))
		}
		if popc != len(w.bitsOf) {
			t.Fatalf("column %d has %d senders, want %d", i, popc, len(w.bitsOf))
		}
		for _, q := range w.bitsOf {
			if c.Word(int(q)>>6)&(uint64(1)<<(uint(q)&63)) == 0 {
				t.Fatalf("column %d missing sender %d", i, q)
			}
		}
	}
	for _, q := range []ProcID{0, 3, 5, 64, 70} {
		if cs.SenderWord(int(q)>>6)&(uint64(1)<<(uint(q)&63)) == 0 {
			t.Fatalf("senders union missing %d", q)
		}
	}
}
