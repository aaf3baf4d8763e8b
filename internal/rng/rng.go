// Package rng provides a small, deterministic, forkable pseudo-random number
// generator used by every randomized component in this repository.
//
// Determinism matters here more than statistical perfection: the paper's
// adversary is a deterministic function of the partial execution, and the
// experiments in EXPERIMENTS.md must be exactly replayable from a seed. The
// generator is splitmix64 (Steele, Lea, Flood 2014), which passes BigCrush on
// its 64-bit outputs and has a trivially forkable structure.
//
// Source is NOT safe for concurrent use; fork one Source per goroutine.
package rng

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// Source is a deterministic pseudo-random source. The zero value is a valid
// source seeded with 0; prefer New for explicit seeding.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Reseed rewinds the source in place to the state New(seed) would produce,
// discarding all history. Trial-recycling callers use this to reuse one
// allocated Source across many seeded executions.
func (s *Source) Reseed(seed uint64) {
	s.state = seed
}

// golden is the splitmix64 increment (odd, derived from the golden ratio).
// goldenInv is its inverse modulo 2^64: the state after i outputs from seed
// is seed + i·golden, so state·goldenInv is the state's global draw index,
// consecutive for consecutive draws and the same whatever the seed.
const (
	golden    = 0x9e3779b97f4a7c15
	goldenInv = 0xf1de83e19937733d
)

// mix is splitmix64's output finalizer, a bijection on 64-bit words.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unmix inverts mix: each xorshift is undone by folding the shifted word
// back in until the shift runs off the end, each multiply by the constant's
// inverse modulo 2^64.
func unmix(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := s; i < 64; i += s {
			x = y ^ (x >> s)
		}
		return x
	}
	z = unshift(z, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

// inverse returns the inverse of the odd m modulo 2^64 (Newton's iteration
// doubles the correct low bits each step).
func inverse(m uint64) uint64 {
	inv := m
	for i := 0; i < 6; i++ {
		inv *= 2 - m*inv
	}
	return inv
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0,
// mirroring math/rand semantics.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n = %d (need n > 0)", n))
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Bit returns a uniformly distributed bit (0 or 1). This is the "local coin"
// every randomized agreement algorithm in the repository flips.
func (s *Source) Bit() uint8 {
	return uint8(s.Uint64() >> 63)
}

// Bool returns a uniformly distributed boolean.
func (s *Source) Bool() bool {
	return s.Bit() == 1
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Fork returns a new independent Source derived from this one and the label.
// Forking is used to give each processor its own random stream (the paper
// assumes "each processor has its own source of random bits, and all of these
// sources are unbiased and independent").
func (s *Source) Fork(label uint64) *Source {
	dst := new(Source)
	s.ForkInto(dst, label)
	return dst
}

// ForkInto derives the same stream Fork(label) would return but writes it
// into dst instead of allocating — the in-place counterpart used when
// recycling a system's per-processor sources. It advances this source's
// state exactly as Fork does.
func (s *Source) ForkInto(dst *Source, label uint64) {
	// Mix the label through one splitmix64 round so that adjacent labels
	// yield unrelated streams.
	dst.state = mix(s.Uint64() + label*golden)
}

// Perm returns a uniformly random permutation of [0, n) using Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	s.PermInto(p)
	return p
}

// PermInto fills p with a uniformly random permutation of [0, len(p)) using
// Fisher-Yates — the allocation-free counterpart of Perm for callers that
// own reusable scratch. It draws exactly the same values from the stream as
// Perm(len(p)).
func (s *Source) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// SubsetScratch is SubsetBits's working permutation and the rejection table
// it last used, reusable across calls and sizes. The zero value is ready;
// one scratch serves one goroutine.
type SubsetScratch struct {
	// perm is the identity permutation between calls: SubsetBits undoes its
	// few swaps before it returns, so no call pays to rebuild it.
	perm []int
	// rejects is the rejection table of size class class (0: none), the
	// one the last call's prefix needed.
	rejects []uint64
	class   int
}

// SubsetBits writes a uniformly random k-element subset of [0, n) as the
// bitset row (bit v of row is set iff v is chosen; len(row) must be
// (n+63)/64 and bits at n and above come out clear). The subset and the
// stream position afterwards are those of PermInto on an n-slice followed by
// taking its first k entries. It panics if k > n, k < 0 or the row has the
// wrong length.
//
// The draw sequence is frozen: it is PermInto's full Fisher-Yates pass, n-1
// draws whatever k is, because the stream position after a planning call is
// part of every seeded record (the per-window schedulers and chaos
// adversaries draw one subset per receiver per window). Cheaper samplers (a
// partial shuffle, Floyd's algorithm) draw differently and would change
// every recorded execution. But the pass fixes positions n-1 down to k in
// its first n-k steps, and its remaining draws only permute the chosen
// prefix among itself. So the set is known after n-k swaps: those n-k values
// are cleared from an all-ones row, and the source skips the other draws
// (skip, usually in one step). No list is built, ordered or read back; a
// caller that needs the members one by one reads the row's set bits, which
// come out ascending.
func (s *Source) SubsetBits(row []uint64, n, k int, sc *SubsetScratch) {
	if k < 0 || k > n {
		panic(fmt.Sprintf("rng: SubsetBits called with k = %d out of range [0, %d]", k, n))
	}
	if len(row) != (n+63)/64 {
		panic(fmt.Sprintf("rng: SubsetBits called with a %d-word row for n = %d", len(row), n))
	}
	if len(sc.perm) != n {
		sc.perm = make([]int, n)
		for i := range sc.perm {
			sc.perm[i] = i
		}
	}
	perm := sc.perm
	keep := k
	if k == 0 {
		keep = n // the empty set: no swap tells anything, every draw is skipped
		clear(row)
	} else {
		for w := range row {
			row[w] = ^uint64(0)
		}
		if n&63 != 0 {
			row[len(row)-1] = 1<<(uint(n)&63) - 1
		}
	}
	// Step i moves perm[j] to position i for good and nothing reads position
	// i again, so the bit is cleared now and the slot keeps j for the undo.
	for i := n - 1; i >= keep; i-- {
		j := s.Intn(i + 1)
		v := perm[j]
		row[v>>6] &^= 1 << (uint(v) & 63)
		perm[j] = perm[i]
		perm[i] = j
	}
	// Ascending, every slot read here still holds its own step's j: a step
	// only ever wrote values to positions below its own.
	for i := keep; i < n; i++ {
		j := perm[i]
		perm[j] = j
		perm[i] = i
	}
	if c := rejectClass(keep); c != sc.class {
		sc.rejects, sc.class = rejectTables.get(c), c
	}
	s.skip(keep, sc.rejects)
}

// skip moves the source past the draws Intn(keep), Intn(keep-1), ...,
// Intn(2) would make, results unused: the draws that would only shuffle a
// Fisher-Yates prefix whose set is already known. table is the rejection
// table of rejectClass(keep). Without a rejection those are keep-1
// consecutive outputs, so when table lists none of their global indices
// the source jumps them in one add; otherwise (and without a table) it
// makes them one by one under Intn's rule, which is exact. It reports
// whether it jumped.
func (s *Source) skip(keep int, table []uint64) bool {
	if table != nil {
		first := (s.state + golden) * goldenInv
		i, _ := slices.BinarySearch(table, first)
		if i == len(table) {
			i = 0 // the indices wrap: the next listed one is the smallest
		}
		if table[i]-first >= uint64(keep-1) {
			s.state += uint64(keep-1) * golden
			return true
		}
	}
	// Intn's loop with the result dropped, so only the low product word is
	// needed.
	state := s.state
	for bound := uint64(keep); bound >= 2; bound-- {
		for {
			state += golden
			if lo := mix(state) * bound; lo >= bound || lo >= (-bound)%bound {
				break
			}
		}
	}
	s.state = state
	return false
}

// maxRejectClass caps the rejection tables at bounds up to 2^10 = 1024,
// 154,549 indices (1.2 MB); a longer prefix makes its draws one by one.
const maxRejectClass = 10

// rejectClass is the size class whose table covers the bounds keep down to
// 2: the least c with keep <= 2^c, or 0 (no table) when keep <= 2, which
// never rejects, or keep is past the cap.
func rejectClass(keep int) int {
	if keep <= 2 || keep > 1<<maxRejectClass {
		return 0
	}
	return bits.Len(uint(keep - 1))
}

// rejectTables is the process-wide set of rejection tables, each built on
// the first draw that needs it and read-only after.
var rejectTables rejectTableSet

// rejectTableSet holds one rejection table per size class c, the sorted
// global draw indices (see goldenInv) of every output Intn rejects at some
// bound up to 2^c. A state's index does not depend on the seed, so neither
// does the table.
type rejectTableSet [maxRejectClass + 1]struct {
	once  sync.Once
	table []uint64
}

// get returns class c's table, building it on first use; class 0 has none.
func (ts *rejectTableSet) get(c int) []uint64 {
	if c == 0 {
		return nil
	}
	e := &ts[c]
	e.once.Do(func() { e.table = buildRejects(1 << c) })
	return e.table
}

// buildRejects lists the global draw index of every output Intn rejects at
// some bound in [3, maxBound], sorted and without duplicates. Intn rejects v
// at bound b iff v·b mod 2^64 < 2^64 mod b, which only a power of two never
// has (2^64 mod b = 0). The low word v·b mod 2^64 is below b for at most one
// v per high word q < b, the least v with v·b >= q·2^64.
func buildRejects(maxBound uint64) []uint64 {
	var table []uint64
	for b := uint64(3); b <= maxBound; b++ {
		if b&(b-1) == 0 {
			continue
		}
		thresh := -b % b
		for q := uint64(0); q < b; q++ {
			v, rem := bits.Div64(q, 0, b)
			if rem != 0 {
				v++
			}
			if v*b < thresh {
				table = append(table, unmix(v)*goldenInv)
			}
		}
	}
	slices.Sort(table)
	return slices.Compact(table)
}
