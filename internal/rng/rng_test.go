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
