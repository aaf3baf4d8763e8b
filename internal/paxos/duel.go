package paxos

import (
	"asyncagree/internal/adversary"
	"asyncagree/internal/sim"
)

// DuelScheduler is the classic dueling-proposers adversarial schedule, made
// precise with full information: every non-Accept message is delivered
// promptly (fair, round-robin), but an Accept(b, v) message is withheld
// until a majority of acceptors have already promised a ballot above b — at
// which point delivering it can only produce NACKs. Proposers therefore
// alternate invalidating each other's ballots forever.
//
// Note every message IS eventually delivered (once invalidated), so the
// schedule satisfies the crash-model liveness constraint; it is pure
// scheduling, no faults at all — exactly the FLP-style worst case Paxos
// does not terminate under.
//
// The round-robin walk is adversary.Lockstep; this type adds only its
// delivery filter and the early release of doomed Accepts.
type DuelScheduler struct {
	walk *adversary.Lockstep
	// sys is the system of the NextStep call in progress, for the filter.
	sys      *sim.System
	deferred map[int64]bool
}

var _ sim.StepAdversary = (*DuelScheduler)(nil)

// NewDuelScheduler returns a dueling scheduler.
func NewDuelScheduler() *DuelScheduler {
	d := &DuelScheduler{walk: adversary.NewLockstep(), deferred: make(map[int64]bool)}
	d.walk.Allow = d.allow
	return d
}

// NextStep implements sim.StepAdversary.
func (d *DuelScheduler) NextStep(s *sim.System) (sim.Step, bool) {
	// First, release any deferred Accept whose ballot is now doomed.
	for id := range d.deferred {
		m, ok := s.Buffer().Get(id)
		if !ok {
			delete(d.deferred, id)
			continue
		}
		if !d.withholds(s, m) {
			delete(d.deferred, id)
			return sim.Step{Kind: sim.StepDeliver, MsgID: id}, true
		}
	}
	d.sys = s
	return d.walk.NextStep(s)
}

// allow is the walk's delivery filter: it remembers what it withholds.
func (d *DuelScheduler) allow(m sim.Message) bool {
	if d.withholds(d.sys, m) {
		d.deferred[m.ID] = true
		return false
	}
	return true
}

// withholds reports whether m is an Accept whose ballot is not yet doomed.
func (d *DuelScheduler) withholds(s *sim.System, m sim.Message) bool {
	acc, isAcc := m.Payload.(*Msg)
	return isAcc && acc.Kind == MsgAccept && !d.doomed(s, acc.B)
}

// doomed reports whether a majority of acceptors have promised a ballot
// strictly above b (so delivering Accept(b) yields only NACKs).
func (d *DuelScheduler) doomed(s *sim.System, b int) bool {
	above := 0
	for i := 0; i < s.N(); i++ {
		p, ok := s.Proc(sim.ProcID(i)).(*Proc)
		if ok && p.PromisedBallot() > b {
			above++
		}
	}
	return above >= s.N()/2+1
}
