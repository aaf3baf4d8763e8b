package core

import (
	"math"

	"asyncagree/internal/sim"
)

// This file is the core algorithm's port onto the columnar vote-tally
// kernel: SendColumnar publishes the queued broadcasts as (round, value)
// columns, and DeliverTally replays the window's per-message delivery on the
// kernel's window scan (sim/ledger.go, which says why a scan and not a
// popcount), byte-identical to n-t individual Deliver calls. One cursor runs
// through the window. Normal operation is the kernel's Scan waiting for T1
// votes of the current round, from one crossing to the next; what is core's
// own is the post-reset resynchronization, whose wait is over every round at
// once, and the pending evaluation an adoption can leave behind
// (anyRoundWord), both walked one word of the cursor at a time.

var _ sim.VoteBroadcaster = (*Proc)(nil)
var _ sim.TallyReceiver = (*Proc)(nil)

// SendColumnar implements sim.VoteBroadcaster: it publishes the queued
// broadcasts (class 0, value-bearing) instead of materializing Messages.
// Queued rounds strictly ascend, satisfying the publish-order contract.
func (p *Proc) SendColumnar(pub sim.VotePublisher) {
	for _, v := range p.queue.Pending() {
		pub.Publish(v.R, 0, uint8(v.X))
	}
	p.queue.Discard()
}

// DeliverTally implements sim.TallyReceiver. In the normal wait Scan runs
// ahead to the next crossing, where the cascade evaluates, or to the
// window's end; in the other two states anyRoundWord takes the cursor's
// word, and the cursor moves on once the word holds no event.
func (p *Proc) DeliverTally(t *sim.WindowTally, r sim.RandSource) {
	c := t.Cursor()
	for {
		cur := voteKey(p.round)
		if needed := p.th.T1 - p.votes.Seen(cur); !p.syncing && needed > 0 {
			if !p.votes.Scan(c, cur, needed) {
				return
			}
			p.cascade(r)
		} else if !p.anyRoundWord(c, cur, r) && !c.Next() {
			return
		}
	}
}

// anyRoundWord processes (the rest of) the cursor's word in the two states
// whose event can come from any round, not the current one alone:
//
//   - resynchronizing after a reset: no staleness, and the event is the
//     first message that brings any round's tally to T1, the adoption point;
//   - the current round complete but unevaluated, which is how an adoption
//     leaves a complete buffered next round (the syncing branch of Deliver
//     evaluates once and returns without cascading): the next applied vote
//     of any non-stale round fires the cascade.
//
// Either way the event is the earliest in delivery order, (bit, key)
// lexicographic: ties at one sender bit resolve to the smallest round,
// matching the sender's ascending record order. It applies the exact
// delivery prefix through the event and evaluates, returning true, or, with
// no event in the word, applies the rest of the word and returns false.
func (p *Proc) anyRoundWord(c *sim.Cursor, cur int, r sim.RandSource) bool {
	minKey := cur
	if p.syncing {
		minKey = math.MinInt
	}
	bestBit, bestKey := 64, 0
	for ci, cols := 0, c.Columns(); ci < len(cols); ci++ {
		key := cols[ci].Key()
		if key < minKey || (ci > 0 && cols[ci-1].Key() == key) {
			continue
		}
		needed := 1
		if p.syncing {
			needed = p.th.T1 - p.votes.Seen(key)
		}
		if b := p.votes.Crossing(c, key, needed); b < bestBit {
			bestBit, bestKey = b, key
		}
	}
	// No other key can have its event at an earlier-or-equal position — it
	// would have won the selection above — so the prefix through the event
	// holds no other event. (Before a pending evaluation's event it holds
	// nothing but duplicates: the prefix is that one vote.) With no event in
	// the word, bit 64 applies all of it.
	p.votes.ApplyThrough(c, bestBit, bestKey, minKey)
	if bestBit == 64 {
		return false
	}
	if !p.syncing {
		p.cascade(r)
		return true
	}
	// Adopt exactly like Deliver: evaluate once, no cascade.
	p.round = bestKey >> 2 // the round of voteKey
	p.syncing = false
	p.evaluate(r)
	return true
}
