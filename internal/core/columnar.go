package core

import (
	"math"

	"asyncagree/internal/sim"
)

// This file is the core algorithm's port onto the columnar vote-tally
// kernel: SendColumnar publishes the queued broadcasts as (round, value)
// columns, and DeliverTally replays the window's per-message delivery word
// by word on the kernel's ledger scan (sim/ledger.go, which says why a scan
// and not a popcount), byte-identical to n-t individual Deliver calls.
// Normal operation is the kernel's ScanWord waiting for T1 votes of the
// current round; what is core's own is the post-reset resynchronization,
// whose wait is over every round at once, and the pending evaluation an
// adoption can leave behind (anyRoundWord).

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

// DeliverTally implements sim.TallyReceiver.
func (p *Proc) DeliverTally(t *sim.WindowTally, r sim.RandSource) {
	for w := 0; w < t.Words(); w++ {
		word := t.Word(w)
		for p.scanWord(word, r) {
		}
	}
}

// scanWord processes (part of) one sender word. It either finds the next
// evaluation event — applies the exact delivery prefix, evaluates, returns
// true so the caller re-enters with the updated round/mode — or proves no
// event fires in this word, applies the remainder, and returns false.
func (p *Proc) scanWord(word *sim.WordScan, r sim.RandSource) bool {
	cur := voteKey(p.round)
	if needed := p.th.T1 - p.votes.Seen(cur); !p.syncing && needed > 0 {
		if !p.votes.ScanWord(word, cur, needed) {
			return false
		}
		p.cascade(r)
		return true
	}
	return p.anyRoundWord(word, cur, r)
}

// anyRoundWord is scanWord in the two states whose event can come from any
// round, not the current one alone:
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
// matching the sender's ascending record order.
func (p *Proc) anyRoundWord(word *sim.WordScan, cur int, r sim.RandSource) bool {
	minKey := cur
	if p.syncing {
		minKey = math.MinInt
	}
	bestBit, bestKey := 64, 0
	for ci, cols := 0, word.Columns(); ci < len(cols); ci++ {
		key := cols[ci].Key()
		if key < minKey || (ci > 0 && cols[ci-1].Key() == key) {
			continue
		}
		needed := 1
		if p.syncing {
			needed = p.th.T1 - p.votes.Seen(key)
		}
		if b := p.votes.Crossing(word, key, needed); b < bestBit {
			bestBit, bestKey = b, key
		}
	}
	// No other key can have its event at an earlier-or-equal position — it
	// would have won the selection above — so the prefix through the event
	// holds no other event. (Before a pending evaluation's event it holds
	// nothing but duplicates: the prefix is that one vote.) With no event in
	// the word, bit 64 applies all of it.
	p.votes.ApplyThrough(word, bestBit, bestKey, minKey)
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
