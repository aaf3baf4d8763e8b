package stream

import "sort"

// TopItem is one scored entry of a TopK accumulator.
type TopItem struct {
	// Score is the item's score; TopK keeps the highest.
	Score float64
	// ID is the item's stable identity. It breaks score ties (lower ID
	// ranks first), which is what makes the retained set and its order a
	// total function of the observations.
	ID string
}

// less orders items best-first: score descending, then ID ascending.
func (a TopItem) less(b TopItem) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// TopK keeps the k best (score, ID) items seen. Because the ranking is a
// total order (score descending, ID ascending) and Add retains exactly the k
// smallest elements under it, the retained items are a pure function of the
// multiset of observations, never of insertion order. The zero value (or
// k <= 0) keeps a single best item.
type TopK struct {
	k     int
	items []TopItem
}

// NewTopK creates an accumulator retaining the k best items (k < 1 is
// treated as 1: a deterministic argmax).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k}
}

// bound returns the retention limit, tolerating the zero value.
func (t *TopK) bound() int {
	if t.k < 1 {
		return 1
	}
	return t.k
}

// Add folds one observation in.
func (t *TopK) Add(score float64, id string) {
	t.insert(TopItem{Score: score, ID: id})
}

// insert places it into the sorted retained slice, dropping the worst item
// on overflow.
func (t *TopK) insert(it TopItem) {
	i := sort.Search(len(t.items), func(j int) bool { return it.less(t.items[j]) })
	if i >= t.bound() {
		return
	}
	t.items = append(t.items, TopItem{})
	copy(t.items[i+1:], t.items[i:])
	t.items[i] = it
	if len(t.items) > t.bound() {
		t.items = t.items[:t.bound()]
	}
}

// Len returns the number of retained items (<= k).
func (t *TopK) Len() int { return len(t.items) }

// Items returns a copy of the retained items, best first.
func (t *TopK) Items() []TopItem {
	return append([]TopItem(nil), t.items...)
}

// Best returns the single best item, and whether any observation was added.
func (t *TopK) Best() (TopItem, bool) {
	if len(t.items) == 0 {
		return TopItem{}, false
	}
	return t.items[0], true
}
