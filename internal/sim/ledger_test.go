package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestMaskFrom(t *testing.T) {
	cases := []struct {
		b    int
		want uint64
	}{
		{0, ^uint64(0)},
		{1, ^uint64(1)},
		{63, uint64(1) << 63},
		{64, 0},
		{65, 0},
	}
	for _, c := range cases {
		if got := maskFrom(c.b); got != c.want {
			t.Errorf("maskFrom(%d) = %#x, want %#x", c.b, got, c.want)
		}
	}
}

func TestNthSetBit(t *testing.T) {
	cases := []struct {
		x    uint64
		k    int
		want int
	}{
		{1, 1, 0},
		{0b1011, 1, 0},
		{0b1011, 2, 1},
		{0b1011, 3, 3},
		{^uint64(0), 64, 63},
		{uint64(1)<<63 | 1, 2, 63},
	}
	for _, c := range cases {
		if got := nthSetBit(c.x, c.k); got != c.want {
			t.Errorf("nthSetBit(%#x, %d) = %d, want %d", c.x, c.k, got, c.want)
		}
	}
}

// dump renders a ledger's live tallies in key order.
func (l *Ledger) dump() string {
	var b strings.Builder
	for _, t := range l.live {
		fmt.Fprintf(&b, "%d:%x/%d/%v ", t.key, t.voted, t.seen, t.count)
	}
	return b.String()
}

// TestWindowScanMatchesBitWalk is the kernel-level differential test of the
// window scan: over random columns, allow rows, start states and waits,
// driving a whole window through one cursor with Scan must leave the ledger
// in the state — and report the crossings at the senders — of the reference
// walk that adds one (sender, record) bit at a time in delivery order. Each
// crossing moves the wait to a later key with a fresh needed count, as an
// evaluation would.
func TestWindowScanMatchesBitWalk(t *testing.T) {
	var sawBit0, sawBit63, sawTwoInWord, sawNeeded1, sawBulk2, sawLastWord, sawNone bool
	for _, n := range []int{7, 63, 64, 65, 130, 200, 1024} {
		for seed := int64(0); seed < 400; seed++ {
			rnd := rand.New(rand.NewSource(seed*131 + int64(n)))
			words := (n + 63) / 64
			// Columns: every sender publishes a random ascending subset of
			// the keys (rounds 1..3 × classes 1..2), each record with a
			// random value, one in four inadmissible; dense draws make full
			// words, sparse ones gaps.
			var cs ColumnSet
			cs.reset(words)
			density := 1 + rnd.Intn(4)
			for q := 0; q < n; q++ {
				for round := 1; round <= 3; round++ {
					for class := uint8(1); class <= 2; class++ {
						if rnd.Intn(4) < density {
							cs.publish(ProcID(q), round, class, uint8(rnd.Intn(4)))
						}
					}
				}
			}
			cols := cs.Columns()
			// The allow row: every sender (nil) one time in four.
			var allow []uint64
			if rnd.Intn(4) != 0 {
				allow = make([]uint64, words)
				for q := 0; q < n; q++ {
					if rnd.Intn(8) != 0 {
						allow[q>>6] |= uint64(1) << (uint(q) & 63)
					}
				}
			}
			// Start state: both ledgers have met the same earlier records.
			scan, walk := NewLedger(n, 3), NewLedger(n, 3)
			for i := rnd.Intn(2 * n); i > 0; i-- {
				key := VoteKey(1+rnd.Intn(3), uint8(1+rnd.Intn(2)))
				v, valued, from := Bit(rnd.Intn(2)), rnd.Intn(3) != 0, ProcID(rnd.Intn(n))
				if scan.Add(key, v, valued, from) != walk.Add(key, v, valued, from) {
					t.Fatalf("n=%d seed=%d: Add diverged between equal ledgers", n, seed)
				}
			}
			// The waits: a start key, then what each crossing moves on to.
			type wait struct{ skip, needed int }
			waits := make([]wait, 16)
			for i := range waits {
				waits[i] = wait{skip: 1 + rnd.Intn(2), needed: 1 + rnd.Intn(n)}
				if rnd.Intn(2) == 0 {
					waits[i].needed = 1 + rnd.Intn(3)
				}
			}
			startKey := VoteKey(1, uint8(1+rnd.Intn(2)))
			next := func(l *Ledger, key, crossings int) (int, int) {
				w := waits[crossings%len(waits)]
				key += w.skip // class 3 is a key no column carries: a wait that never completes
				l.DropBelow(key)
				return key, w.needed
			}

			type crossing struct {
				sender, key int
				state       string
			}
			var got, want []crossing

			key, needed := startKey, waits[len(waits)-1].needed
			sawNeeded1 = sawNeeded1 || needed == 1
			c := &Cursor{cols: cols, allow: allow, words: words, key: math.MinInt}
			inWord := 0
			for from := c.w; scan.Scan(c, key, needed); from = c.w {
				got = append(got, crossing{c.w<<6 | c.bit, key, scan.dump()})
				sawBit0 = sawBit0 || c.bit == 0
				sawBit63 = sawBit63 || c.bit == 63
				sawBulk2 = sawBulk2 || c.w-from >= 2
				sawLastWord = sawLastWord || (words > 1 && c.w == words-1)
				if c.w != from {
					inWord = 0
				}
				inWord++
				sawTwoInWord = sawTwoInWord || inWord >= 2
				key, needed = next(&scan, key, len(got))
			}
			sawNone = sawNone || len(got) == 0
			if c.w != words || c.Next() {
				t.Fatalf("n=%d seed=%d: the scan ended with the cursor at word %d of %d", n, seed, c.w, words)
			}

			key, needed = startKey, waits[len(waits)-1].needed
			for q := 0; q < n; q++ {
				w, bit := q>>6, uint64(1)<<(uint(q)&63)
				if allow != nil && allow[w]&bit == 0 {
					continue
				}
				for ci := range cols {
					c := &cols[ci]
					if c.bits[w]&bit == 0 || c.Key() < key {
						continue // not sent, or stale
					}
					if walk.addWord(c.Key(), c.Val, w, bit) == 1 && c.Key() == key {
						if needed--; needed == 0 {
							want = append(want, crossing{q, key, walk.dump()})
							key, needed = next(&walk, key, len(want))
						}
					}
				}
			}

			if !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: crossings diverged:\nscan %v\nwalk %v", n, seed, got, want)
			}
			if g, w := scan.dump(), walk.dump(); g != w {
				t.Fatalf("n=%d seed=%d: final ledgers diverged:\nscan %s\nwalk %s", n, seed, g, w)
			}
		}
	}
	if !sawBit0 || !sawBit63 || !sawTwoInWord || !sawNeeded1 || !sawBulk2 || !sawLastWord || !sawNone {
		t.Fatalf("cases not reached: crossing at bit 0 %v, at bit 63 %v, two in one word %v, needed == 1 %v, after two or more bulk words %v, in the last word %v; a window without one %v",
			sawBit0, sawBit63, sawTwoInWord, sawNeeded1, sawBulk2, sawLastWord, sawNone)
	}
}

// TestLedgerDropsInadmissibleRecords pins the one guard of the tally: a
// record whose value the ledger does not admit, or whose sender does not
// exist, is dropped on either path and creates no tally.
func TestLedgerDropsInadmissibleRecords(t *testing.T) {
	bitsOnly := NewLedger(8, 2)
	for _, c := range []struct {
		v      Bit
		valued bool
		from   ProcID
	}{
		{2, true, 1},  // a valued record must carry a bit
		{0, false, 1}, // no neutral records in a bits-only ledger
		{1, true, -1},
		{1, true, 8},
	} {
		if bitsOnly.Add(4, c.v, c.valued, c.from) {
			t.Errorf("Add(%+v) counted", c)
		}
	}
	var cs ColumnSet
	cs.reset(1)
	cs.publish(3, 1, 0, ValNeutral)
	cs.publish(4, 1, 0, 7)
	all := func() *Cursor { return &Cursor{cols: cs.Columns(), words: 1, key: math.MinInt} }
	if bit := bitsOnly.Crossing(all(), VoteKey(1, 0), 1); bit != 64 {
		t.Errorf("an inadmissible record crossed at bit %d", bit)
	}
	bitsOnly.ApplyThrough(all(), 64, 0, 0)
	if s := bitsOnly.dump(); s != "" {
		t.Errorf("inadmissible records left tallies: %s", s)
	}
	withNeutral := NewLedger(8, 3)
	withNeutral.ApplyThrough(all(), 64, 0, 0)
	if got := withNeutral.Seen(VoteKey(1, 0)); got != 1 {
		t.Errorf("a neutral-admitting ledger saw %d of the two senders, want the neutral one only", got)
	}
}
