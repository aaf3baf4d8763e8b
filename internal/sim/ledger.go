package sim

import (
	"math"
	"math/bits"
	"slices"
)

// This file is the receive half of the columnar kernel: the vote ledger a
// threshold protocol tallies into, and the window scan that replays a
// window's per-message delivery on it. The per-message Deliver of core and
// benor calls the ledger's single-bit Add; their DeliverTally drives one
// Cursor through the window with Scan, which must be byte-identical to the
// equivalent Deliver calls — same tallies, same threshold-crossing points,
// same rng draws, same final state.
//
// Why a scan and not a plain popcount: the message path evaluates a wait the
// exact message that brings its tally to the threshold, and the coin flip
// (or adoption) at that point consumes randomness before any later message of
// the window is tallied — later messages may then be stale (the protocol
// advanced past them) or feed the next wait. A whole-window popcount would
// tally them first and diverge. Delivery order is ascending sender, and
// within a sender ascending record order = ascending key, so the scan finds
// the word holding the next crossing from the waited-for key's columns
// alone, one popcount per sender word; applies every word before it in bulk,
// column by column — sound because tallying is commutative and evaluation
// only ever fires on the current key's tally — and handles the crossing word
// bit-exactly.

// VoteKey packs (round, class) into the ledger's one ordered key: the order
// columns sort in, the order a sender's records are delivered in, and the
// order staleness compares in. Classes must fit in two bits.
func VoteKey(round int, class uint8) int { return round<<2 | int(class) }

// Key returns the ledger key of the column's records.
func (c *VoteColumn) Key() int { return VoteKey(c.Round, c.Class) }

// maskFrom returns the word mask selecting bit positions >= b, for b >= 0
// (0 from 64 on: Go defines over-wide shifts as zero).
func maskFrom(b int) uint64 { return ^uint64(0) << uint(b) }

// nthSetBit returns the position of the k-th (1-based) set bit of x. The
// caller guarantees x has at least k set bits.
func nthSetBit(x uint64, k int) int {
	for ; k > 1; k-- {
		x &= x - 1 // clear lowest set bit
	}
	return bits.TrailingZeros64(x)
}

// voteTally is one key's tally: the senders recorded (at most one record
// per sender and key counts), how many, and how many carried each bit.
type voteTally struct {
	key   int
	voted []uint64
	seen  int
	count [2]int
}

// add records the senders of mask (bits of sender word w) as having sent a
// record carrying val, skipping those already recorded, and returns how
// many were new.
func (t *voteTally) add(val uint8, w int, mask uint64) int {
	mask &^= t.voted[w]
	t.voted[w] |= mask
	c := bits.OnesCount64(mask)
	t.seen += c
	if val < ValNeutral {
		t.count[val] += c
	}
	return c
}

// Ledger holds a processor's live tallies in key order and recycles them
// through a free list, so the steady-state window loop allocates nothing
// here. A tally exists iff at least one admissible record of its key was
// added since the key was last dropped.
type Ledger struct {
	n, words int
	vals     uint8
	live     []*voteTally // ascending key
	free     []*voteTally
	// last caches the most recent successful lookup: the current key's
	// tally is asked for many times per window.
	last *voteTally
}

// NewLedger returns an empty ledger for senders 0..n-1 admitting record
// values below vals: 2 for bits only, 3 for bits and ValNeutral.
func NewLedger(n int, vals uint8) Ledger {
	return Ledger{n: n, words: (n + 63) / 64, vals: vals}
}

// search returns key's position in live and whether a tally is there.
func (l *Ledger) search(key int) (int, bool) {
	lo, hi := 0, len(l.live)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); l.live[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l.live) && l.live[lo].key == key
}

// tally returns key's tally, nil if there is none. The cache hit inlines.
func (l *Ledger) tally(key int) *voteTally {
	if t := l.last; t != nil && t.key == key {
		return t
	}
	return l.lookup(key)
}

// lookup is tally's miss path.
func (l *Ledger) lookup(key int) *voteTally {
	i, ok := l.search(key)
	if !ok {
		return nil
	}
	l.last = l.live[i]
	return l.last
}

// acquire returns key's tally, inserting an empty one in key order (from
// the free list when it has one) when there is none. The caller adds at
// least one record to it.
func (l *Ledger) acquire(key int) *voteTally {
	if t := l.tally(key); t != nil {
		return t
	}
	var t *voteTally
	if k := len(l.free); k > 0 {
		t, l.free = l.free[k-1], l.free[:k-1]
	} else {
		t = &voteTally{voted: make([]uint64, l.words)}
	}
	t.key = key
	i, _ := l.search(key)
	l.live = slices.Insert(l.live, i, t)
	return t
}

// addWord records the senders of mask (bits of sender word w, not empty) as
// having sent a key record carrying val, skipping those already recorded
// for the key, and returns how many were new. A value the ledger does not
// admit is dropped like any other foreign payload.
func (l *Ledger) addWord(key int, val uint8, w int, mask uint64) int {
	if val >= l.vals {
		return 0
	}
	return l.acquire(key).add(val, w, mask)
}

// Add is the per-message form: it records one delivered key record from
// sender from, carrying bit v when valued and nothing otherwise, and
// reports whether it counted. A duplicate, a sender outside 0..n-1 and a
// valued v that is not a bit do not.
func (l *Ledger) Add(key int, v Bit, valued bool, from ProcID) bool {
	val := ValNeutral
	if valued {
		val = uint8(v)
	}
	if (valued && val >= ValNeutral) || from < 0 || int(from) >= l.n {
		return false
	}
	return l.addWord(key, val, int(from)>>6, uint64(1)<<(uint(from)&63)) > 0
}

// Seen returns the number of distinct senders recorded for key.
func (l *Ledger) Seen(key int) int {
	if t := l.tally(key); t != nil {
		return t.seen
	}
	return 0
}

// Counts returns how many of key's recorded senders carried 0 and 1.
func (l *Ledger) Counts(key int) [2]int {
	if t := l.tally(key); t != nil {
		return t.count
	}
	return [2]int{}
}

// DropBelow releases every tally whose key is below key: the records a
// protocol that advanced to key will never read again.
func (l *Ledger) DropBelow(key int) {
	if l.last != nil && l.last.key < key {
		l.last = nil
	}
	i := 0
	for ; i < len(l.live) && l.live[i].key < key; i++ {
		t := l.live[i]
		clear(t.voted)
		t.seen, t.count = 0, [2]int{}
		l.free = append(l.free, t)
	}
	l.live = slices.Delete(l.live, 0, i)
}

// Clear releases every tally.
func (l *Ledger) Clear() { l.DropBelow(math.MaxInt) }

// Cursor is one receiver's progress through a window on its way into its
// ledger: the window's columns, the receiver's allow row, the sender word w
// the scan has reached, and the frontier inside that word. Words before w
// are fully delivered and words after it not at all; in word w, senders
// below bit are fully delivered, and sender bit is delivered through key
// (its higher-key records come after the crossing record it just
// delivered).
type Cursor struct {
	cols     []VoteColumn
	allow    []uint64 // nil: every sender
	words, w int
	bit, key int
}

// Cursor returns the receiver's cursor at the start of the window, nothing
// delivered yet. It is the tally's own scratch: valid until the next Cursor
// call.
func (t *WindowTally) Cursor() *Cursor {
	t.cur = Cursor{cols: t.cs.cols, allow: t.allow, words: t.cs.words, key: math.MinInt}
	return &t.cur
}

// Next moves the cursor to the start of the next sender word, the caller
// having delivered the rest of the current one, and reports whether there
// is one.
func (c *Cursor) Next() bool {
	c.w = min(c.w+1, c.words)
	c.bit, c.key = 0, math.MinInt
	return c.w < c.words
}

// Columns returns the window's columns, sorted by key.
func (c *Cursor) Columns() []VoteColumn { return c.cols }

// keyColumns returns the index range of key's columns, which sort together
// after every column of a lower key.
func (c *Cursor) keyColumns(key int) (lo, hi int) {
	for lo < len(c.cols) && c.cols[lo].Key() < key {
		lo++
	}
	hi = lo
	for hi < len(c.cols) && c.cols[hi].Key() == key {
		hi++
	}
	return lo, hi
}

// undelivered returns the allowed senders of word w whose key record the
// cursor has not delivered: those behind the frontier in the cursor's word,
// all of them in a later word. A nil allow row is all-ones (column bits
// beyond n-1 are never set, so the overshoot is harmless).
func (c *Cursor) undelivered(key, w int) uint64 {
	m := ^uint64(0)
	if c.allow != nil {
		m = c.allow[w]
	}
	switch {
	case w != c.w:
		return m
	case key <= c.key:
		return m & maskFrom(c.bit+1)
	default:
		return m & maskFrom(c.bit)
	}
}

// fresh returns the senders of word w whose key record is new: carried with
// an admitted value by one of key's columns cols[lo:hi], undelivered, and
// not recorded in t, key's tally (nil when there is none).
func (l *Ledger) fresh(c *Cursor, lo, hi int, t *voteTally, key, w int) uint64 {
	var m uint64
	for ci := lo; ci < hi; ci++ {
		if col := &c.cols[ci]; col.Val < l.vals {
			m |= col.bits[w]
		}
	}
	if m == 0 {
		return 0
	}
	m &= c.undelivered(key, w)
	if t != nil {
		m &^= t.voted[w]
	}
	return m
}

// Crossing returns the sender bit of the cursor's word whose key record is
// the needed-th new one in delivery order, or 64 when the word holds fewer
// than needed (>= 1).
func (l *Ledger) Crossing(c *Cursor, key, needed int) int {
	lo, hi := c.keyColumns(key)
	fresh := l.fresh(c, lo, hi, l.tally(key), key, c.w)
	if bits.OnesCount64(fresh) < needed {
		return 64
	}
	return nthSetBit(fresh, needed)
}

// ApplyThrough adds the exact delivery prefix of the cursor's word that ends
// with sender bit's key record — every undelivered record of the senders
// below bit, and sender bit's own records up to key; its higher-key records
// follow the crossing record, so they stay undelivered — skipping keys below
// minKey, and moves the frontier there. Bit 64 is past the word's last
// sender: everything undelivered is added, which is sound only when no
// evaluation can fire on the way (tallying is commutative under the dedupe).
func (l *Ledger) ApplyThrough(c *Cursor, bit, key, minKey int) {
	below := ^maskFrom(bit)
	through := ^maskFrom(bit + 1)
	for ci := range c.cols {
		col := &c.cols[ci]
		k := col.Key()
		if k < minKey {
			continue
		}
		cut := below
		if k <= key {
			cut = through
		}
		if m := col.bits[c.w] & c.undelivered(k, c.w) & cut; m != 0 {
			l.addWord(k, col.Val, c.w, m)
		}
	}
	c.bit, c.key = bit, key
}

// Scan delivers the rest of the window, from the cursor on, to a protocol
// waiting for needed (>= 1) more senders of curKey, records below curKey
// being stale. It popcounts each word's new curKey senders until the
// needed-th falls inside one, the crossing word; applies every word before
// that one whole — no evaluation can fire there — column by column; and
// applies the crossing word exactly, through the crossing sender, leaving
// the cursor there and returning true, for the caller to evaluate and scan
// on with its new wait. When no word holds the crossing, everything left is
// applied, the cursor ends past the last word and Scan returns false.
func (l *Ledger) Scan(c *Cursor, curKey, needed int) bool {
	lo, hi := c.keyColumns(curKey)
	t := l.tally(curKey)
	w, fresh := c.w, uint64(0)
	for ; w < c.words; w++ {
		fresh = l.fresh(c, lo, hi, t, curKey, w)
		k := bits.OnesCount64(fresh)
		if k >= needed {
			break
		}
		needed -= k
	}
	if w > c.w {
		l.applyWords(c, lo, w)
		c.w, c.bit, c.key = w, 0, math.MinInt
	}
	if w == c.words {
		return false
	}
	l.ApplyThrough(c, nthSetBit(fresh, needed), curKey, curKey)
	return true
}

// applyWords adds every undelivered admissible record of the columns from lo
// on (the stale ones sort before it) in words c.w through end-1, column by
// column, resolving each column's tally once.
func (l *Ledger) applyWords(c *Cursor, lo, end int) {
	for ci := lo; ci < len(c.cols); ci++ {
		col := &c.cols[ci]
		if col.Val >= l.vals {
			continue
		}
		k := col.Key()
		var t *voteTally
		for w := c.w; w < end; w++ {
			if m := col.bits[w] & c.undelivered(k, w); m != 0 {
				if t == nil {
					t = l.acquire(k)
				}
				t.add(col.Val, w, m)
			}
		}
	}
}
