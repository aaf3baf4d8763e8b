package benor

import "asyncagree/internal/sim"

// Ben-Or's port onto the columnar vote-tally kernel: the whole receive side
// is the kernel's window scan (sim/ledger.go) waiting for n-t records of the
// current (round, phase), from one crossing to the next. There is no
// resynchronization mode and no carried-over pending evaluation: the drain
// loop runs to a fixpoint after every applied message, so at rest the
// current phase is always strictly below its threshold.

var _ sim.VoteBroadcaster = (*Proc)(nil)
var _ sim.TallyReceiver = (*Proc)(nil)

// SendColumnar implements sim.VoteBroadcaster. A '?' proposal publishes
// sim.ValNeutral; reports from honest senders are always valued. Queued
// (round, phase) keys strictly ascend, satisfying the publish contract.
func (p *Proc) SendColumnar(pub sim.VotePublisher) {
	for _, m := range p.queue.Pending() {
		val := sim.ValNeutral
		if m.Valued {
			val = uint8(m.V)
		}
		pub.Publish(m.R, uint8(m.P), val)
	}
	p.queue.Discard()
}

// DeliverTally implements sim.TallyReceiver: each crossing the scan reports
// is a phase-completing message, after which drain moves the wait on and
// the scan resumes behind it.
func (p *Proc) DeliverTally(t *sim.WindowTally, r sim.RandSource) {
	for c := t.Cursor(); p.votes.Scan(c, p.key(), p.n-p.t-p.votes.Seen(p.key())); {
		p.drain(r)
	}
}
