package sim

import "slices"

// DisownBatch points the System's record of its just-sent batch at a copy of
// the ring span, so the slice WindowSend returned is no longer recognized as
// the System's own: WindowDeliver then treats it as a hand-built batch and
// comparison-sorts it. Called from a planning adversary, it sends a whole
// ApplyWindowWith run down the reference ordering (order_equiv_test.go).
func (s *System) DisownBatch() { s.batch = slices.Clone(s.batch) }

// OwnBatch exposes the identity test that selects the counting-sort order.
func (s *System) OwnBatch(batch []Message) bool { return s.ownBatch(batch) }
