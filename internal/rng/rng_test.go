package rng

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sources with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 10, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	s := New(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := trials / n
	for v, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("value %d drawn %d times, want about %d", v, c, want)
		}
	}
}

func TestBitBalance(t *testing.T) {
	s := New(5)
	const trials = 100000
	ones := 0
	for i := 0; i < trials; i++ {
		b := s.Bit()
		if b > 1 {
			t.Fatalf("Bit returned %d", b)
		}
		ones += int(b)
	}
	if ones < trials*45/100 || ones > trials*55/100 {
		t.Fatalf("bit balance off: %d ones of %d", ones, trials)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(42)
	a := parent.Fork(1)
	b := parent.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams overlap: %d of 100 outputs equal", same)
	}
}

func TestForkDeterministic(t *testing.T) {
	a := New(42).Fork(7)
	b := New(42).Fork(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("fork with same parent seed and label not deterministic")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(11)
	for _, n := range []int{0, 1, 2, 5, 32} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// TestSubsetIntoMatchesSubset pins the stream-identity contract: the
// allocation-free scratch variants draw exactly the same values as their
// allocating counterparts, so swapping one for the other never changes an
// execution.
func TestSubsetIntoMatchesSubset(t *testing.T) {
	a, b := New(99), New(99)
	scratch := make([]int, 32)
	for _, nk := range [][2]int{{10, 3}, {10, 10}, {1, 0}, {32, 30}, {7, 1}} {
		n, k := nk[0], nk[1]
		want := a.Subset(n, k)
		got := b.SubsetInto(scratch[:n], k)
		if len(got) != len(want) {
			t.Fatalf("SubsetInto(%d, %d) length %d, want %d", n, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SubsetInto(%d, %d) = %v, want %v", n, k, got, want)
			}
		}
	}
	if testing.AllocsPerRun(100, func() { New(5).SubsetInto(scratch[:16], 12) }) > 1 {
		t.Fatal("SubsetInto allocates beyond its Source")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SubsetInto with k > len(dst) did not panic")
		}
	}()
	New(1).SubsetInto(scratch[:4], 5)
}

// TestSubsetIntoMatchesReference is the differential check of SubsetInto's
// linear-time ordering pass against the definition it replaces — a full
// PermInto shuffle, then a comparison sort of the chosen prefix — across the
// bitset's word boundaries and both sides of its fixed scratch (n > 4096
// takes the fallback). Equal output AND equal source state afterwards: the
// stream position is part of every seeded record, so the draw sequence must
// not move.
func TestSubsetIntoMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 1024, 4096, 4097} {
		for _, k := range []int{0, 1, n - n/8, n} {
			got, want := New(uint64(n)*31+uint64(k)), New(uint64(n)*31+uint64(k))
			dst, ref := make([]int, n), make([]int, n)
			for round := 0; round < 3; round++ { // dst is dirty from the second round on
				sub := got.SubsetInto(dst, k)
				want.PermInto(ref)
				slices.Sort(ref[:k])
				if !slices.Equal(sub, ref[:k]) {
					t.Fatalf("SubsetInto(n=%d, k=%d) round %d = %v, want %v", n, k, round, sub, ref[:k])
				}
				if *got != *want {
					t.Fatalf("SubsetInto(n=%d, k=%d) round %d left the source at %#x, PermInto at %#x",
						n, k, round, got.state, want.state)
				}
			}
			src := New(7)
			if allocs := testing.AllocsPerRun(10, func() { src.SubsetInto(dst, k) }); allocs != 0 {
				t.Fatalf("SubsetInto(n=%d, k=%d) allocates %.1f per call, want 0", n, k, allocs)
			}
		}
	}
}

// rowOf is the bitset row of the sorted list sub over [0, n).
func rowOf(sub []int, n int) []uint64 {
	row := make([]uint64, (n+63)/64)
	for _, v := range sub {
		row[v>>6] |= 1 << (uint(v) & 63)
	}
	return row
}

// TestSubsetBitsMatchesSubsetInto holds the set-valued sampler to the list
// one from equal states: the same set, and the same next output, so a
// planner may swap one for the other without moving a seeded record. Sizes
// straddle the row's word boundaries and SubsetInto's scratch; k covers both
// ends, the window planners' n-t (t = n/8, the chaos grid's) and the sizes
// where all or none of the draws are swaps. One scratch serves every size,
// dirty from earlier rounds.
func TestSubsetBitsMatchesSubsetInto(t *testing.T) {
	var sc SubsetScratch
	for _, n := range []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 1024, 4096, 4097} {
		for _, k := range []int{0, 1, n - n/8, n - 1, n} {
			seed := uint64(n)*31 + uint64(k)
			list, set := New(seed), New(seed)
			dst, row := make([]int, n), make([]uint64, (n+63)/64)
			for round := 0; round < 3; round++ {
				want := rowOf(list.SubsetInto(dst, k), n)
				set.SubsetBits(row, n, k, &sc)
				if !slices.Equal(row, want) {
					t.Fatalf("SubsetBits(n=%d, k=%d) round %d = %x, want %x", n, k, round, row, want)
				}
				if a, b := set.Uint64(), list.Uint64(); a != b {
					t.Fatalf("SubsetBits(n=%d, k=%d) round %d: next output %#x, SubsetInto's %#x", n, k, round, a, b)
				}
			}
			if allocs := testing.AllocsPerRun(10, func() { set.SubsetBits(row, n, k, &sc) }); allocs != 0 {
				t.Fatalf("SubsetBits(n=%d, k=%d) allocates %.1f per call, want 0", n, k, allocs)
			}
		}
	}
	for _, bad := range []func(){
		func() { New(1).SubsetBits(make([]uint64, 1), 4, 5, &sc) },
		func() { New(1).SubsetBits(make([]uint64, 1), 4, -1, &sc) },
		func() { New(1).SubsetBits(make([]uint64, 2), 64, 60, &sc) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("SubsetBits accepted a k out of range or a row of the wrong length")
				}
			}()
			bad()
		}()
	}
}

// unmix inverts mix: each xorshift is undone by folding the shifted word
// back in until the shift runs off the end, each multiply by the constant's
// inverse modulo 2^64 (Newton's iteration doubles the correct low bits).
func unmix(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := s; i < 64; i += s {
			x = y ^ (x >> s)
		}
		return x
	}
	inverse := func(m uint64) uint64 {
		inv := m
		for i := 0; i < 6; i++ {
			inv *= 2 - m*inv
		}
		return inv
	}
	z = unshift(z, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

// TestSubsetBitsRejectsWhereIntnDoes forces a Lemire rejection inside the
// draws SubsetBits consumes without using. An output of 0 is rejected at
// bound 3 (its low product word, 0, is below 2^64 mod 3 = 1) and nowhere
// else in this call, so a source whose sixth output is 0 makes n = 8, k = 6
// (bounds 8, 7 swapped; 6, 5, 4, 3, 2 consumed) draw one extra word. The
// two samplers must still agree on the set and on where the stream stands.
func TestSubsetBitsRejectsWhereIntnDoes(t *testing.T) {
	if x := uint64(0x0123456789abcdef); mix(unmix(x)) != x || unmix(mix(x)) != x {
		t.Fatal("unmix does not invert mix")
	}
	const n, k = 8, 6
	step := uint64(golden) // a variable: the products below wrap, as the stream does
	start := unmix(0) - 6*step
	probe := New(start)
	for i := 0; i < 5; i++ {
		probe.Uint64()
	}
	if probe.Uint64() != 0 {
		t.Fatal("the sixth output is not 0")
	}
	plain := New(start)
	for bound := n; bound >= 2; bound-- {
		plain.Intn(bound)
	}
	if plain.state != start+n*step {
		t.Fatalf("Intn over bounds %d..2 left the source at %#x, want %#x: %d words, one of them rejected",
			n, plain.state, start+n*step, n)
	}
	var sc SubsetScratch
	list, set := New(start), New(start)
	row := make([]uint64, 1)
	want := rowOf(list.SubsetInto(make([]int, n), k), n)
	set.SubsetBits(row, n, k, &sc)
	if !slices.Equal(row, want) {
		t.Fatalf("SubsetBits = %x, want %x", row, want)
	}
	if *set != *list || set.state != start+n*step {
		t.Fatalf("SubsetBits left the source at %#x, SubsetInto at %#x, want %#x",
			set.state, list.state, start+n*step)
	}
}

func TestSubsetProperties(t *testing.T) {
	s := New(13)
	check := func(n, k uint8) bool {
		nn := int(n%20) + 1
		kk := int(k) % (nn + 1)
		sub := s.Subset(nn, kk)
		if len(sub) != kk {
			return false
		}
		for i, v := range sub {
			if v < 0 || v >= nn {
				return false
			}
			if i > 0 && sub[i-1] >= v {
				return false // must be sorted strictly ascending
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetCoverage(t *testing.T) {
	// Every element should appear in some subset over many draws.
	s := New(17)
	const n, k = 10, 3
	seen := make([]bool, n)
	for i := 0; i < 1000; i++ {
		for _, v := range s.Subset(n, k) {
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("element %d never selected by Subset", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(100)
	}
}
