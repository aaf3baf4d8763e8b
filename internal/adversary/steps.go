package adversary

import "asyncagree/internal/sim"

// Lockstep is a fair step-mode scheduler: it cycles through sending steps
// for all live processors, then delivers every message buffered at that
// point, and repeats. Every sent message to a live processor is eventually
// delivered, satisfying the liveness constraint of the crash model.
type Lockstep struct {
	// Allow, if set, filters deliveries: a buffered message it rejects is
	// skipped in this cycle, stays buffered and is offered again in the
	// next. Schedulers that withhold messages are a Lockstep with a filter.
	Allow func(sim.Message) bool

	sendNext int
	inSend   bool
	deliverQ []int64
}

var _ sim.StepAdversary = (*Lockstep)(nil)

// NewLockstep returns a fair scheduler starting with a sending phase.
func NewLockstep() *Lockstep {
	return &Lockstep{inSend: true}
}

// NewStarveOne returns a Lockstep that never delivers messages from one
// victim sender (legal in the crash model only if the victim is also crashed
// or if the execution is finite; tests use it to probe wait-threshold
// robustness).
func NewStarveOne(victim sim.ProcID) *Lockstep {
	a := NewLockstep()
	a.Allow = func(m sim.Message) bool { return m.From != victim }
	return a
}

// NextStep implements sim.StepAdversary.
func (a *Lockstep) NextStep(s *sim.System) (sim.Step, bool) {
	n := s.N()
	for {
		if a.inSend {
			for a.sendNext < n && s.Crashed(sim.ProcID(a.sendNext)) {
				a.sendNext++
			}
			if a.sendNext < n {
				p := a.sendNext
				a.sendNext++
				return sim.Step{Kind: sim.StepSend, Proc: sim.ProcID(p)}, true
			}
			a.inSend = false
			a.deliverQ = s.Buffer().IDs()
		}
		for len(a.deliverQ) > 0 {
			id := a.deliverQ[0]
			a.deliverQ = a.deliverQ[1:]
			if m, ok := s.Buffer().Get(id); ok && (a.Allow == nil || a.Allow(m)) {
				return sim.Step{Kind: sim.StepDeliver, MsgID: id}, true
			}
		}
		a.inSend = true
		a.sendNext = 0
	}
}
