package stream_test

import (
	"math"
	"testing"

	"asyncagree/internal/rng"
	"asyncagree/internal/stats"
	"asyncagree/internal/stream"
)

// TestSummaryMatchesBatchOnIntegerSamples is the pipeline's byte-identity
// property: on integer-valued observations (every windows/rounds/chain
// measurement in the repository) the streaming accumulators reproduce the
// batch stats.Summarize fields exactly — not approximately — for
// count/mean/min/max and the reservoir quantiles, with std agreeing to
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
		batch := stats.Summarize(xs)
		if acc.Count() != batch.Count || acc.Sum() != float64(total) || acc.Mean() != batch.Mean ||
			acc.Min() != batch.Min || acc.Max() != batch.Max {
			t.Fatalf("trial %d: streaming (n=%d mean=%v min=%v max=%v) != batch %+v",
				trial, acc.Count(), acc.Mean(), acc.Min(), acc.Max(), batch)
		}
		if acc.Std() != batch.Std {
			// Same accumulation order, same arithmetic: bit-equal.
			t.Fatalf("trial %d: streaming std %v != batch %v", trial, acc.Std(), batch.Std)
		}
		if res.Quantile(0.5) != batch.Median || res.Quantile(0.9) != batch.P90 {
			t.Fatalf("trial %d: reservoir quantiles (%v, %v) != batch (%v, %v)",
				trial, res.Quantile(0.5), res.Quantile(0.9), batch.Median, batch.P90)
		}
		fs := stats.FromStream(&acc, res)
		if fs != batch {
			t.Fatalf("trial %d: FromStream %+v != Summarize %+v", trial, fs, batch)
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
		for i := range xs {
			xs[i] = (r.Float64() - 0.5) * 1e4
			acc.Add(xs[i])
		}
		batch := stats.Summarize(xs)
		if acc.Count() != batch.Count || acc.Min() != batch.Min || acc.Max() != batch.Max {
			t.Fatalf("trial %d: exact fields diverged", trial)
		}
		if !approx(acc.Mean(), batch.Mean) || !approx(acc.Std(), batch.Std) {
			t.Fatalf("trial %d: mean/std diverged: (%v, %v) vs (%v, %v)",
				trial, acc.Mean(), acc.Std(), batch.Mean, batch.Std)
		}
	}
}

// TestSummaryEmpty pins zero-value behavior to the zero stats.Summary.
func TestSummaryEmpty(t *testing.T) {
	var s stream.Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
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
