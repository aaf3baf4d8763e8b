package sim

import "slices"

// DisownBatch swaps the just-sent batch's backing array for a copy, so the
// slice WindowSend returned is no longer the System's own scratch:
// WindowDeliver then treats it as a hand-built batch and comparison-sorts it.
// Called from a planning adversary, it sends a whole ApplyWindowWith run down
// the reference ordering (order_equiv_test.go).
func (s *System) DisownBatch() { s.batchScratch = slices.Clone(s.batchScratch) }

// OwnBatch exposes the identity test that selects the counting-sort order.
func (s *System) OwnBatch(batch []Message) bool { return s.ownBatch(batch) }
