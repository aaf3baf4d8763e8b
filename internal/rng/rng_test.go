package rng

import (
	"math/bits"
	"slices"
	"sync"
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

// rowOf is the bitset row of the list sub over [0, n).
func rowOf(sub []int, n int) []uint64 {
	row := make([]uint64, (n+63)/64)
	for _, v := range sub {
		row[v>>6] |= 1 << (uint(v) & 63)
	}
	return row
}

// subsetSizes straddle the row's word boundaries and the rejection tables'
// cap (a prefix of 1024 has a table, 1025 not); subsetPrefixes covers both
// ends of k, the window planners' n-t (t = n/8, the chaos grid's) and the
// sizes where all or none of the draws are swaps.
var subsetSizes = []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 1024, 1025, 4096, 4097}

func subsetPrefixes(n int) []int { return []int{0, 1, n - n/8, n - 1, n} }

// TestSubsetIntoMatchesReference is the differential check of SubsetBits,
// the one subset sampler (it took over the list sampler SubsetInto's
// contract, and this check keeps that sampler's name), against the
// definition both share: a full PermInto shuffle, then the set of the
// first k entries. Equal set AND equal source state afterwards: the stream
// position is part of every seeded record, so the draw sequence must not
// move. One scratch serves every size, dirty from earlier rounds.
func TestSubsetIntoMatchesReference(t *testing.T) {
	var sc SubsetScratch
	for _, n := range subsetSizes {
		for _, k := range subsetPrefixes(n) {
			seed := uint64(n)*31 + uint64(k)
			got, want := New(seed), New(seed)
			row, ref := make([]uint64, (n+63)/64), make([]int, n)
			for round := 0; round < 3; round++ {
				got.SubsetBits(row, n, k, &sc)
				want.PermInto(ref)
				slices.Sort(ref[:k])
				if !slices.Equal(row, rowOf(ref[:k], n)) {
					t.Fatalf("SubsetBits(n=%d, k=%d) round %d = %x, want %v", n, k, round, row, ref[:k])
				}
				if *got != *want {
					t.Fatalf("SubsetBits(n=%d, k=%d) round %d left the source at %#x, PermInto at %#x",
						n, k, round, got.state, want.state)
				}
			}
		}
	}
}

// TestSubsetBitsMatchesSubsetInto holds SubsetBits to the call contract the
// list sampler SubsetInto had, whose name the check keeps: no allocation
// per call once the scratch is warm, on every size of the reference grid,
// and a panic, not a short or long row, on a k out of range or a row of
// the wrong length.
func TestSubsetBitsMatchesSubsetInto(t *testing.T) {
	var sc SubsetScratch
	for _, n := range subsetSizes {
		for _, k := range subsetPrefixes(n) {
			src, row := New(uint64(n)*31+uint64(k)), make([]uint64, (n+63)/64)
			src.SubsetBits(row, n, k, &sc)
			if allocs := testing.AllocsPerRun(10, func() { src.SubsetBits(row, n, k, &sc) }); allocs != 0 {
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

// TestSubsetBitsRejectsWhereIntnDoes forces a Lemire rejection inside the
// draws SubsetBits consumes without using. An output of 0 is rejected at
// bound 3 (its low product word, 0, is below 2^64 mod 3 = 1) and nowhere
// else in this call, so a source whose sixth output is 0 makes n = 8, k = 6
// (bounds 8, 7 swapped; 6, 5, 4, 3, 2 consumed) draw one extra word.
// SubsetBits and PermInto must still agree on the set and on where the
// stream stands.
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
	ref, set := New(start), New(start)
	perm := make([]int, n)
	ref.PermInto(perm)
	if ref.state != start+n*step {
		t.Fatalf("PermInto(%d) left the source at %#x, want %#x: %d words, one of them rejected",
			n, ref.state, start+n*step, n)
	}
	var sc SubsetScratch
	row := make([]uint64, 1)
	set.SubsetBits(row, n, k, &sc)
	if want := rowOf(perm[:k], n); !slices.Equal(row, want) {
		t.Fatalf("SubsetBits = %x, want %x", row, want)
	}
	if *set != *ref {
		t.Fatalf("SubsetBits left the source at %#x, PermInto at %#x", set.state, ref.state)
	}
}

// rejectsAt reports whether Intn rejects the output v at bound b.
func rejectsAt(v, b uint64) bool {
	return v*b < -b%b
}

// plantFor returns an output that Intn rejects at bound b and at no other
// bound up to maxBound, so that in a table covering maxBound only b's
// entries can route it to the exact loop. When b has none it returns 0,
// which every bound that rejects at all rejects: bounds dividing 2^64-1
// (3, 5, 15, 17, 51, 85 here) reject nothing else, and every output 14,
// 80, 98 and 112 reject is rejected by another bound of their class too,
// so dropping such a bound's entries leaves the table as it was.
func plantFor(b, maxBound uint64, pick *Source) uint64 {
	var candidates []uint64
	for q := uint64(1); q < b; q++ {
		v, rem := bits.Div64(q, 0, b)
		if rem != 0 {
			v++
		}
		if rejectsAt(v, b) {
			candidates = append(candidates, v)
		}
	}
next:
	for _, i := range pick.Perm(len(candidates)) {
		for other := uint64(3); other <= maxBound; other++ {
			if other != b && rejectsAt(candidates[i], other) {
				continue next
			}
		}
		return candidates[i]
	}
	return 0
}

// TestSubsetSkipRoutesEveryRejection plants, for every bound 3..130 that
// can reject, an output rejected at that bound only at a random offset
// among the draws the sampler skips, and holds SubsetBits to PermInto on
// the set and on the final state: the skip must see
// the rejection and make the draws one by one. The prefix length keep is
// drawn from the bound's own size class (b <= keep <= 2^c < 2b), whose
// table lists no multiple of b, so that each bound 3..130 with an output
// no other bound in its class rejects has one planted: dropping that
// bound's entries from the table fails this test. Every table entry must
// decode to an output rejected at some bound the table covers.
func TestSubsetSkipRoutesEveryRejection(t *testing.T) {
	pick := New(34)
	var sc SubsetScratch
	for b := uint64(3); b <= 130; b++ {
		if b&(b-1) == 0 {
			continue
		}
		top := uint64(1) << bits.Len64(b-1)
		v := plantFor(b, top, pick)
		keep := int(b) + pick.Intn(int(top-b)+1) // bound b draws at offset keep-b of the skipped block
		n := keep + pick.Intn(9)
		// The swaps make n-keep draws, the skipped block keep-b before b's.
		start := unmix(v) - uint64(n-int(b)+1)*golden
		ref := New(start)
		perm := make([]int, n)
		ref.PermInto(perm)
		if ref.state != start+uint64(n)*golden {
			t.Fatalf("bound %d: PermInto(%d) made %d draws, want %d: the planted output was not rejected",
				b, n, (ref.state-start)*goldenInv, n)
		}
		set := New(start)
		row := make([]uint64, (n+63)/64)
		set.SubsetBits(row, n, keep, &sc)
		if want := rowOf(perm[:keep], n); !slices.Equal(row, want) {
			t.Fatalf("bound %d (n=%d, k=%d): SubsetBits = %x, want %x", b, n, keep, row, want)
		}
		if *set != *ref {
			t.Fatalf("bound %d (n=%d, k=%d): SubsetBits left the source at %#x, PermInto at %#x",
				b, n, keep, set.state, ref.state)
		}
	}
	const c = 8
	for _, idx := range rejectTables.get(c) {
		out := mix(idx * golden)
		listed := false
		for b := uint64(3); b <= 1<<c && !listed; b++ {
			listed = rejectsAt(out, b)
		}
		if !listed {
			t.Fatalf("class %d lists index %#x, whose output %#x no bound up to %d rejects", c, idx, out, 1<<c)
		}
	}
}

// TestSubsetSkipTakenOnChaosShape holds the skip to its fast path on the
// chaos grid's shape (n = 128, k = n-t = 112): across 10,000 consecutive
// calls, no skipped block may need the exact loop, so a table that lists
// too much cannot hide behind the fallback's exactness.
func TestSubsetSkipTakenOnChaosShape(t *testing.T) {
	const n, k = 128, 112
	var sc SubsetScratch
	src, row := New(1), make([]uint64, 2)
	table := rejectTables.get(rejectClass(k))
	for call := 0; call < 10000; call++ {
		probe := *src
		for b := n; b > k; b-- {
			probe.Intn(b)
		}
		if !probe.skip(k, table) {
			t.Fatalf("call %d: the skip fell back to the exact loop", call)
		}
		src.SubsetBits(row, n, k, &sc)
		if *src != probe {
			t.Fatalf("call %d: SubsetBits left the source at %#x, the skip at %#x", call, src.state, probe.state)
		}
	}
}

// TestRejectTablesFirstTouch builds one class from many goroutines at once
// (run it under -race): every caller gets the one table, equal to the
// process-wide one, and samplers on their own sources may touch the
// process-wide tables at the same time.
func TestRejectTablesFirstTouch(t *testing.T) {
	const c, callers = 7, 8
	var fresh rejectTableSet
	got := make([][]uint64, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = fresh.get(c)
			var sc SubsetScratch
			New(uint64(i)).SubsetBits(make([]uint64, 2), 100+i, 90+i, &sc)
		}()
	}
	wg.Wait()
	want := rejectTables.get(c)
	for i, table := range got {
		if len(table) == 0 || &table[0] != &got[0][0] || !slices.Equal(table, want) {
			t.Fatalf("caller %d got a table of %d entries, not the one shared table of %d", i, len(table), len(want))
		}
	}
}

func TestSubsetProperties(t *testing.T) {
	s := New(13)
	var sc SubsetScratch
	check := func(n, k uint8) bool {
		nn := int(n%20) + 1
		kk := int(k) % (nn + 1)
		row := make([]uint64, 1)
		s.SubsetBits(row, nn, kk, &sc)
		return bits.OnesCount64(row[0]) == kk && row[0]>>uint(nn) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetCoverage(t *testing.T) {
	// Every element should appear in some subset over many draws.
	s := New(17)
	var sc SubsetScratch
	const n, k = 10, 3
	var seen, row [1]uint64
	for i := 0; i < 1000; i++ {
		s.SubsetBits(row[:], n, k, &sc)
		seen[0] |= row[0]
	}
	if seen[0] != 1<<n-1 {
		t.Fatalf("elements %b never selected by SubsetBits", ^seen[0]&(1<<n-1))
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
