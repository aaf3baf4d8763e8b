// Package stream provides the online accumulators of the result pipeline:
// bounded-memory reductions over trial measurements that replace buffering
// complete result sets (see DESIGN.md §4).
//
// Every accumulator has one mutating operation, Add, which folds one
// observation in, and its state is a pure function of the observation
// sequence. Trial batteries fan out on parallel.Stream, whose consumer sees
// results in trial order on one goroutine, so the sequence — and with it
// every statistic — is the serial loop's on any machine. Count, Sum, Min,
// Max are exact; so is Mean whenever the observations are integer-valued
// (every windows/rounds/chain-depth measurement in this repository),
// because Mean is computed as an exact integer-representable Sum over
// Count. Reservoir quantiles are exact while the observation count fits the
// capacity and a deterministic sketch beyond it.
package stream

import (
	"math"
	"sort"
)

// Summary is an online min/max/count/mean/variance accumulator. The zero
// value is ready to use and describes an empty sample.
type Summary struct {
	count    int
	sum      float64
	min, max float64
	// m2 is the Welford sum of squared deviations from the running mean.
	m2 float64
}

// Add folds one observation in.
func (s *Summary) Add(x float64) {
	if s.count == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	// Welford update written against the exact sum-based mean.
	delta := x - s.Mean()
	s.m2 += delta * delta * float64(s.count) / float64(s.count+1)
	s.sum += x
	s.count++
}

// AddInt folds one integer observation in.
func (s *Summary) AddInt(x int) { s.Add(float64(x)) }

// Count returns the number of observations.
func (s *Summary) Count() int { return s.count }

// Sum returns the observation total.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the sample mean (0 for an empty sample). It is computed as
// Sum/Count, so it is exact — and identical to a batch sum over count —
// whenever the observations are integer-valued.
func (s *Summary) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Std returns the population standard deviation (the /n convention; 0 for
// an empty sample).
func (s *Summary) Std() float64 {
	if s.count == 0 {
		return 0
	}
	v := s.m2 / float64(s.count)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Summary) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 for an empty sample).
func (s *Summary) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Reservoir is a fixed-capacity deterministic quantile sketch. While the
// observation count is at most the capacity it retains every value and its
// quantiles are exact (identical to sorting the full sample); beyond the
// capacity it decimates deterministically — it keeps every stride-th
// observation, doubling the stride each time the buffer fills — so memory
// stays O(capacity) for any stream length and the sketch remains a pure
// function of the observation sequence.
type Reservoir struct {
	cap     int
	stride  int
	seen    int
	samples []float64
}

// DefaultReservoirCap retains every experiment-scale sample exactly (the
// largest per-configuration trial count in the repository is well below
// it), so streaming medians and percentiles stay byte-identical to the
// batch path at all committed scales.
const DefaultReservoirCap = 4096

// NewReservoir creates a sketch retaining at most capacity values
// (DefaultReservoirCap if capacity <= 0).
func NewReservoir(capacity int) *Reservoir {
	if capacity <= 0 {
		capacity = DefaultReservoirCap
	}
	return &Reservoir{cap: capacity, stride: 1}
}

// Add folds one observation in.
func (r *Reservoir) Add(x float64) {
	keep := r.seen%r.stride == 0
	r.seen++
	if !keep {
		return
	}
	if len(r.samples) == r.cap {
		// Compact: retain observations at indices ≡ 0 (mod 2·stride).
		half := r.samples[:0]
		for i := 0; i < len(r.samples); i += 2 {
			half = append(half, r.samples[i])
		}
		r.samples = half
		r.stride *= 2
		if (r.seen-1)%r.stride != 0 {
			return
		}
	}
	r.samples = append(r.samples, x)
}

// AddInt folds one integer observation in.
func (r *Reservoir) AddInt(x int) { r.Add(float64(x)) }

// Count returns the number of observations folded in (not the retained
// sample count).
func (r *Reservoir) Count() int { return r.seen }

// Retained returns how many values the sketch currently holds.
func (r *Reservoir) Retained() int { return len(r.samples) }

// Quantile returns the q-quantile (0 <= q <= 1) of the retained samples by
// linear interpolation between the closest ranks — exact while the
// observation count is within capacity, a sketch estimate beyond. An empty
// sketch yields 0.
func (r *Reservoir) Quantile(q float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), r.samples...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Hist is a bounded integer histogram for decision-round (and other small
// non-negative count) distributions: buckets 0..Buckets()-1 plus one
// overflow bucket, so memory is O(buckets) regardless of stream length.
type Hist struct {
	counts   []int64
	overflow int64
	total    int64
}

// NewHist creates a histogram with the given number of unit-width buckets
// (values v with 0 <= v < buckets; larger values land in the overflow
// bucket, negative ones in bucket 0).
func NewHist(buckets int) *Hist {
	if buckets < 1 {
		buckets = 1
	}
	return &Hist{counts: make([]int64, buckets)}
}

// Add folds one observation in.
func (h *Hist) Add(v int) {
	h.total++
	switch {
	case v < 0:
		h.counts[0]++
	case v >= len(h.counts):
		h.overflow++
	default:
		h.counts[v]++
	}
}

// Buckets returns the number of unit-width buckets (excluding overflow).
func (h *Hist) Buckets() int { return len(h.counts) }

// Count returns the total number of observations.
func (h *Hist) Count() int64 { return h.total }

// CountLess returns how many observations were < v. Exact for v within the
// bucket range; for v > Buckets() the overflow bucket's position is unknown
// and CountLess conservatively excludes it.
func (h *Hist) CountLess(v int) int64 {
	if v <= 0 {
		return 0
	}
	if v > len(h.counts) {
		v = len(h.counts)
	}
	var total int64
	for i := 0; i < v; i++ {
		total += h.counts[i]
	}
	return total
}

// CountAtLeast returns how many observations were >= v (the survival count
// of the decision-round curves). Exact for v within the bucket range.
func (h *Hist) CountAtLeast(v int) int64 { return h.total - h.CountLess(v) }

// Bucket returns the count of observations equal to v (0 for out-of-range
// v; the overflow bucket is reported by Overflow).
func (h *Hist) Bucket(v int) int64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Overflow returns the count of observations >= Buckets().
func (h *Hist) Overflow() int64 { return h.overflow }
