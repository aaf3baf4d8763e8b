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
const golden = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
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
	z := s.Uint64() + label*golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	dst.state = z ^ (z >> 31)
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

// Subset returns a uniformly random k-element subset of [0, n), sorted
// ascending. It panics if k > n or k < 0.
func (s *Source) Subset(n, k int) []int {
	return s.SubsetInto(make([]int, n), k)
}

// SubsetInto returns a uniformly random k-element subset of [0, len(dst)),
// sorted ascending, in dst[:k] — the allocation-free counterpart of Subset
// for callers that own an n-length scratch slice (contents need not be
// initialized; dst[k:] is left unspecified). It draws exactly the same
// values from the stream as Subset(len(dst), k). It panics if k > len(dst)
// or k < 0.
//
// The draw sequence is frozen: it is PermInto's full Fisher-Yates pass,
// len(dst)-1 draws whatever k is, because the stream position after a
// planning call is part of every seeded record (the per-window schedulers
// and chaos adversaries draw one subset per receiver per window). Cheaper
// samplers (a partial shuffle, Floyd's algorithm) draw differently and
// would change every recorded execution, so only the ordering of the chosen
// prefix is optimized. Every window caller passes k = n-t, most of n, so
// that ordering is an O(n) membership-bitset pass rather than a sort.
func (s *Source) SubsetInto(dst []int, k int) []int {
	if k < 0 || k > len(dst) {
		panic(fmt.Sprintf("rng: SubsetInto called with k = %d out of range [0, %d]", k, len(dst)))
	}
	s.PermInto(dst)
	sortPrefix(dst, k)
	return dst[:k]
}

// subsetScratchWords sizes sortPrefix's stack bitset: it covers n up to
// 4096, every size the simulator runs (E15 tops out there).
const subsetScratchWords = 64

// sortPrefix rewrites p[:k] ascending, where p is a permutation of
// [0, len(p)): it marks the chosen values in a stack bitset and reads the
// bitset back in order, O(n) with no comparisons and no allocation. Beyond
// the scratch it falls back to a comparison sort.
func sortPrefix(p []int, k int) {
	n := len(p)
	if n > subsetScratchWords*64 {
		slices.Sort(p[:k])
		return
	}
	var member [subsetScratchWords]uint64
	for _, v := range p[:k] {
		member[v>>6] |= 1 << (uint(v) & 63)
	}
	i := 0
	for w, word := range member[:(n+63)/64] {
		for ; word != 0; word &= word - 1 {
			p[i] = w<<6 | bits.TrailingZeros64(word)
			i++
		}
	}
}
