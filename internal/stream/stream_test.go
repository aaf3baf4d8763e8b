package stream_test

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"asyncagree/internal/rng"
	"asyncagree/internal/stream"
)

// quantile is the batch reference: the q-quantile of an ascending-sorted
// sample by linear interpolation between its closest ranks.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// popStd is the two-pass population standard deviation.
func popStd(xs []float64, mean float64) float64 {
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// TestSummaryMatchesBatchOnIntegerSamples is the pipeline's byte-identity
// property: on integer-valued observations (every windows/rounds/chain
// measurement in the repository) the streaming accumulators reproduce the
// collect-then-sort batch exactly — not approximately — for
// count/sum/mean/min/max and the reservoir quantiles, with std agreeing to
// floating-point rounding.
func TestSummaryMatchesBatchOnIntegerSamples(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		xs := make([]float64, n)
		var acc stream.Summary
		res := stream.NewReservoir(0)
		total := 0
		for i := range xs {
			v := r.Intn(100000) - 50000
			xs[i] = float64(v)
			total += v
			acc.AddInt(v)
			res.AddInt(v)
		}
		sorted := slices.Sorted(slices.Values(xs))
		mean := float64(total) / float64(n)
		if acc.Count() != n || acc.Sum() != float64(total) || acc.Mean() != mean ||
			acc.Min() != sorted[0] || acc.Max() != sorted[n-1] {
			t.Fatalf("trial %d: streaming (n=%d mean=%v min=%v max=%v) != batch (n=%d mean=%v min=%v max=%v)",
				trial, acc.Count(), acc.Mean(), acc.Min(), acc.Max(), n, mean, sorted[0], sorted[n-1])
		}
		if want := popStd(xs, mean); math.Abs(acc.Std()-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: streaming std %v != batch %v", trial, acc.Std(), want)
		}
		for _, q := range []float64{0, 0.5, 0.9, 1} {
			if got, want := res.Quantile(q), quantile(sorted, q); got != want {
				t.Fatalf("trial %d: reservoir quantile(%v) = %v, batch %v", trial, q, got, want)
			}
		}
	}
}

// TestSummaryMatchesBatchOnFloatSamples relaxes to floating-point tolerance
// for arbitrary real observations.
func TestSummaryMatchesBatchOnFloatSamples(t *testing.T) {
	r := rng.New(11)
	approx := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
	}
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(200)
		xs := make([]float64, n)
		var acc stream.Summary
		var sum float64
		for i := range xs {
			xs[i] = (r.Float64() - 0.5) * 1e4
			sum += xs[i]
			acc.Add(xs[i])
		}
		mean := sum / float64(n)
		if acc.Count() != n || acc.Min() != slices.Min(xs) || acc.Max() != slices.Max(xs) {
			t.Fatalf("trial %d: exact fields diverged", trial)
		}
		if !approx(acc.Mean(), mean) || !approx(acc.Std(), popStd(xs, mean)) {
			t.Fatalf("trial %d: mean/std diverged: (%v, %v) vs (%v, %v)",
				trial, acc.Mean(), acc.Std(), mean, popStd(xs, mean))
		}
	}
}

// TestSummaryOffsetVariance is the Welford regression test: the naive
// sumSq/n − mean² formula loses every significant digit of the variance
// when the sample rides a large common offset (here x + 1e9 with unit-scale
// spread — sumSq ≈ 1e18 swamps float64's 15–16 digits), historically
// reporting Std 0 or garbage. Welford's update subtracts the running mean
// before squaring, so the offset cancels exactly.
func TestSummaryOffsetVariance(t *testing.T) {
	const offset = 1e9
	var s stream.Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x + offset)
	}
	if math.Abs(s.Std()-math.Sqrt2) > 1e-6 {
		t.Fatalf("Std of offset sample = %v, want %v (catastrophic cancellation)", s.Std(), math.Sqrt2)
	}
	if s.Mean() != offset+3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
}

// TestSummaryEmpty pins the zero value: an empty sample reports zeros.
func TestSummaryEmpty(t *testing.T) {
	var s stream.Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

// TestReservoirQuantile pins the interpolation on a small sample, and an
// empty sketch to 0.
func TestReservoirQuantile(t *testing.T) {
	r := stream.NewReservoir(0)
	for _, x := range []float64{40, 0, 30, 10, 20} {
		r.Add(x)
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 0}, {1, 40}, {0.5, 20}, {0.25, 10}, {0.125, 5},
	} {
		if got := r.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := stream.NewReservoir(0).Quantile(0.5); got != 0 {
		t.Errorf("empty sketch Quantile = %v, want 0", got)
	}
}

// TestReservoirQuantileMonotone: a higher q never yields a lower quantile.
func TestReservoirQuantileMonotone(t *testing.T) {
	check := func(raw []float64, q1, q2 float64) bool {
		r := stream.NewReservoir(0)
		for _, x := range raw {
			if x = math.Mod(math.Abs(x), 1000); !math.IsNaN(x) {
				r.Add(x)
			}
		}
		a, b := math.Mod(math.Abs(q1), 1), math.Mod(math.Abs(q2), 1)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return r.Quantile(min(a, b)) <= r.Quantile(max(a, b))+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReservoirBoundedAndDeterministic drives the sketch past its capacity:
// memory stays bounded, the state is a pure function of the sequence, and
// quantiles remain ordered estimates of the stream.
func TestReservoirBoundedAndDeterministic(t *testing.T) {
	const capacity = 64
	a, b := stream.NewReservoir(capacity), stream.NewReservoir(capacity)
	for i := 0; i < 10_000; i++ {
		a.Add(float64(i))
		b.Add(float64(i))
	}
	if a.Retained() > capacity {
		t.Fatalf("retained %d > capacity %d", a.Retained(), capacity)
	}
	if a.Count() != 10_000 {
		t.Fatalf("count = %d", a.Count())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatal("two identical streams produced different sketches")
		}
	}
	// Uniform 0..9999: the sketch median must land near 5000.
	if m := a.Quantile(0.5); m < 4000 || m > 6000 {
		t.Fatalf("sketch median %v implausible for uniform stream", m)
	}
	if lo, hi := a.Quantile(0.1), a.Quantile(0.9); lo >= hi {
		t.Fatalf("quantiles out of order: %v >= %v", lo, hi)
	}
}

// TestHist covers bucket accounting and overflow.
func TestHist(t *testing.T) {
	h := stream.NewHist(8)
	for _, v := range []int{0, 1, 1, 3, 7, 8, 100, -2} {
		h.Add(v)
	}
	if h.Count() != 8 || h.Buckets() != 8 {
		t.Fatalf("count %d buckets %d", h.Count(), h.Buckets())
	}
	if h.Bucket(1) != 2 || h.Bucket(0) != 2 || h.Overflow() != 2 {
		t.Fatalf("bucket counts wrong: %+v", h)
	}
	if h.CountLess(2) != 4 || h.CountAtLeast(2) != 4 {
		t.Fatalf("CountLess(2) = %d, CountAtLeast(2) = %d", h.CountLess(2), h.CountAtLeast(2))
	}
	if h.CountLess(0) != 0 || h.CountAtLeast(0) != 8 {
		t.Fatal("edge cumulative counts wrong")
	}
}
