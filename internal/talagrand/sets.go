package talagrand

import (
	"strconv"
	"strings"
)

// ExplicitSet is a finite set of points with Hamming-distance queries — the
// form of set used for the configuration sets Z^k_0, Z^k_1 in the proofs
// (Definitions 6-8 of the paper).
type ExplicitSet struct {
	points []Point
	index  map[string]bool
}

var _ Set = (*ExplicitSet)(nil)

// NewExplicitSet builds a set from points (duplicates are collapsed). The
// points are copied.
func NewExplicitSet(points ...Point) *ExplicitSet {
	e := &ExplicitSet{index: make(map[string]bool, len(points))}
	for _, p := range points {
		e.Add(p)
	}
	return e
}

func key(p Point) string {
	var b strings.Builder
	for _, v := range p {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	return b.String()
}

// Add inserts a copy of p.
func (e *ExplicitSet) Add(p Point) {
	k := key(p)
	if e.index[k] {
		return
	}
	e.index[k] = true
	e.points = append(e.points, append(Point(nil), p...))
}

// Len returns the number of points.
func (e *ExplicitSet) Len() int { return len(e.points) }

// Points returns the points (shared backing; treat as read-only).
func (e *ExplicitSet) Points() []Point { return e.points }

// Contains implements Set.
func (e *ExplicitSet) Contains(p Point) bool { return e.index[key(p)] }

// Dist returns the Hamming distance from x to the set (Definition 6),
// or -1 for an empty set.
func (e *ExplicitSet) Dist(x Point) int {
	if len(e.points) == 0 {
		return -1
	}
	best := len(x) + 1
	for _, p := range e.points {
		if d := Hamming(x, p); d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	return best
}

// Ball returns B(A, d) = {x : Dist(x, A) <= d} as a predicate set
// (Definition 8).
func (e *ExplicitSet) Ball(d int) Set {
	return PredicateSet(func(x Point) bool {
		dist := e.Dist(x)
		return dist >= 0 && dist <= d
	})
}

// SetDistance returns Delta(A, B), the minimum Hamming distance between a
// point of a and a point of b (Definition 7), or -1 if either set is empty.
func SetDistance(a, b *ExplicitSet) int {
	if a.Len() == 0 || b.Len() == 0 {
		return -1
	}
	best := -1
	for _, p := range a.points {
		if d := b.Dist(p); best < 0 || d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	return best
}

// HammingWeightAtMost returns the set {x in {0,1}^n : sum(x) <= k} — the
// low-weight half-space used to plant far-apart set pairs in experiments.
func HammingWeightAtMost(k int) Set {
	return PredicateSet(func(p Point) bool {
		w := 0
		for _, v := range p {
			w += v
		}
		return w <= k
	})
}

// HammingWeightAtLeast returns {x in {0,1}^n : sum(x) >= k}.
func HammingWeightAtLeast(k int) Set {
	return PredicateSet(func(p Point) bool {
		w := 0
		for _, v := range p {
			w += v
		}
		return w >= k
	})
}

// WeightBallAtMost returns B(HammingWeightAtMost(k), d) for bit spaces: the
// ball of a weight half-space is again a weight half-space, {x : sum(x) <=
// k+d}, which gives exact Lemma 9 checks without point enumeration.
func WeightBallAtMost(k, d int) Set {
	return HammingWeightAtMost(k + d)
}
