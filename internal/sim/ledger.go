package sim

import (
	"math"
	"math/bits"
	"slices"
)

// This file is the receive half of the columnar kernel: the vote ledger a
// threshold protocol tallies into, and the word scan that replays a window's
// per-message delivery on it. The per-message Deliver of core and benor calls
// the ledger's single-bit Add; their DeliverTally walks the sender words with
// ScanWord, which must be byte-identical to the equivalent Deliver calls —
// same tallies, same threshold-crossing points, same rng draws, same final
// state.
//
// Why a scan and not a plain popcount: the message path evaluates a wait the
// exact message that brings its tally to the threshold, and the coin flip
// (or adoption) at that point consumes randomness before any later message of
// the window is tallied — later messages may then be stale (the protocol
// advanced past them) or feed the next wait. A whole-window popcount would
// tally them first and diverge. The scan therefore walks sender words in
// ascending order (delivery order is ascending sender, and within a sender
// ascending record order = ascending key), bulk-applying records between
// threshold crossings — sound because tallying is commutative and evaluation
// only ever fires on the current key's tally — and handling each crossing
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

// Ledger holds a processor's live tallies in key order and recycles them
// through a free list, so the steady-state window loop allocates nothing
// here. A tally exists iff at least one admissible record of its key was
// added since the key was last dropped.
type Ledger struct {
	n, words int
	vals     uint8
	live     []*voteTally // ascending key
	free     []*voteTally
	// last caches the most recent successful lookup: a scan asks for its
	// current key several times per sender word.
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

// addWord records the senders of mask (bits of sender word w, not empty) as
// having sent a key record carrying val, skipping those already recorded
// for the key, and returns how many were new. A value the ledger does not
// admit is dropped like any other foreign payload.
func (l *Ledger) addWord(key int, val uint8, w int, mask uint64) int {
	if val >= l.vals {
		return 0
	}
	t := l.tally(key)
	if t == nil {
		if k := len(l.free); k > 0 {
			t, l.free = l.free[k-1], l.free[:k-1]
		} else {
			t = &voteTally{voted: make([]uint64, l.words)}
		}
		t.key = key
		i, _ := l.search(key)
		l.live = slices.Insert(l.live, i, t)
	}
	mask &^= t.voted[w]
	t.voted[w] |= mask
	c := bits.OnesCount64(mask)
	t.seen += c
	if val < ValNeutral {
		t.count[val] += c
	}
	return c
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

// WordScan is one sender word of a window on its way into a receiver's
// ledger: the window's columns, the receiver's allow mask for the word, and
// the frontier — the scan's progress inside the word after a crossing.
// Senders below bit are fully delivered, and sender bit is delivered through
// key (its higher-key records come after the crossing record it just
// delivered).
type WordScan struct {
	cols     []VoteColumn
	w        int
	allow    uint64
	bit, key int
}

// Word returns the scan of sender word w, nothing of it delivered yet. It
// is the tally's own scratch: valid until the next Word call.
func (t *WindowTally) Word(w int) *WordScan {
	s := &t.word
	s.cols, s.w, s.allow = t.cs.cols, w, t.AllowWord(w)
	s.bit, s.key = 0, math.MinInt
	return s
}

// Columns returns the window's columns, sorted by key.
func (s *WordScan) Columns() []VoteColumn { return s.cols }

// rem returns the allowed senders whose key record is still undelivered.
func (s *WordScan) rem(key int) uint64 {
	if key <= s.key {
		return s.allow & maskFrom(s.bit+1)
	}
	return s.allow & maskFrom(s.bit)
}

// Crossing returns the sender bit of the word whose key record is the
// needed-th new one — allowed, behind the frontier, not yet recorded — in
// delivery order, or 64 when the word holds fewer than needed (>= 1).
func (l *Ledger) Crossing(s *WordScan, key, needed int) int {
	var fresh uint64
	for ci := range s.cols {
		if c := &s.cols[ci]; c.Key() == key && c.Val < l.vals {
			fresh |= c.bits[s.w]
		}
	}
	fresh &= s.rem(key)
	if t := l.tally(key); t != nil {
		fresh &^= t.voted[s.w]
	}
	if bits.OnesCount64(fresh) < needed {
		return 64
	}
	return nthSetBit(fresh, needed)
}

// ApplyThrough adds the exact delivery prefix of the word that ends with
// sender bit's key record — every undelivered record of the senders below
// bit, and sender bit's own records up to key; its higher-key records
// follow the crossing record, so they stay undelivered — skipping keys below
// minKey, and moves the frontier there. Bit 64 is past the word's last
// sender: everything undelivered is added, which is sound only when no
// evaluation can fire on the way (tallying is commutative under the dedupe).
func (l *Ledger) ApplyThrough(s *WordScan, bit, key, minKey int) {
	below := ^maskFrom(bit)
	through := ^maskFrom(bit + 1)
	for ci := range s.cols {
		c := &s.cols[ci]
		k := c.Key()
		if k < minKey {
			continue
		}
		cut := below
		if k <= key {
			cut = through
		}
		if m := c.bits[s.w] & s.rem(k) & cut; m != 0 {
			l.addWord(k, c.Val, s.w, m)
		}
	}
	s.bit, s.key = bit, key
}

// ScanWord delivers (the rest of) a sender word to a protocol waiting for
// needed more senders of curKey, records below curKey being stale. Either
// the wait cannot complete in this word — every remaining non-stale record
// is applied in bulk and ScanWord returns false: the word is done — or the
// needed-th new curKey sender is the crossing message: exactly the records
// delivered up to and including it are applied and ScanWord returns true, for
// the caller to evaluate and re-enter with its new key.
func (l *Ledger) ScanWord(s *WordScan, curKey, needed int) bool {
	bit := l.Crossing(s, curKey, needed)
	l.ApplyThrough(s, bit, curKey, curKey)
	return bit < 64
}
