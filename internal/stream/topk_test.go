package stream

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"asyncagree/internal/rng"
)

// topkSample is a fixed observation set with score ties (forcing the ID
// tie-break) and duplicate-free IDs.
func topkSample() []TopItem {
	src := rng.New(17)
	out := make([]TopItem, 20)
	for i := range out {
		out[i] = TopItem{Score: float64(src.Intn(6)), ID: fmt.Sprintf("c%02d", i)}
	}
	return out
}

// reference computes the k best items by full sort under the documented
// total order (score descending, ID ascending).
func reference(items []TopItem, k int) []TopItem {
	sorted := append([]TopItem(nil), items...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].less(sorted[j]) })
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

func TestTopKMatchesFullSort(t *testing.T) {
	items := topkSample()
	for _, k := range []int{1, 3, 5, 19, 25} {
		acc := NewTopK(k)
		for _, it := range items {
			acc.Add(it.Score, it.ID)
		}
		if got, want := acc.Items(), reference(items, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: retained %v, want %v", k, got, want)
		}
	}
}

// TestTopKOrderInvariant is the determinism property the search frontier
// rests on: the retained items are a pure function of the observation
// multiset, identical under every insertion order tried.
func TestTopKOrderInvariant(t *testing.T) {
	items := topkSample()
	const k = 5
	want := reference(items, k)

	src := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		perm := src.Perm(len(items))
		acc := NewTopK(k)
		for _, i := range perm {
			acc.Add(items[i].Score, items[i].ID)
		}
		if got := acc.Items(); !reflect.DeepEqual(got, want) {
			t.Fatalf("permutation %v: retained %v, want %v", perm, got, want)
		}
	}
}

func TestTopKZeroValueAndBest(t *testing.T) {
	var zero TopK
	if _, ok := zero.Best(); ok {
		t.Fatal("empty accumulator claims a best item")
	}
	zero.Add(1, "a")
	zero.Add(2, "b")
	if best, ok := zero.Best(); !ok || best.ID != "b" || zero.Len() != 1 {
		t.Fatalf("zero value must keep a single best item, got %v (len %d)", zero.items, zero.Len())
	}
	if NewTopK(-3).bound() != 1 {
		t.Fatal("k < 1 must clamp to 1")
	}
}
