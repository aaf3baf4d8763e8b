package sim

import "fmt"

// This file implements step mode: the raw fine-grained step interface used
// for the classical asynchronous crash model of Section 5 and for the Paxos
// baseline. The adversary issues one step at a time; the only liveness
// constraint (eventual delivery to non-crashed processors) is the
// responsibility of the adversary/scheduler, as in the paper.

// StepSend executes a sending step for processor id and returns the messages
// placed in the buffer.
func (s *System) StepSend(id ProcID) ([]Message, error) {
	if err := s.checkProc(id); err != nil {
		return nil, err
	}
	if s.crashed[id] {
		return nil, fmt.Errorf("%w: processor %d", ErrCrashed, id)
	}
	// The one-sender case of the window core; the fresh slice of what it
	// stored is the caller's to retain.
	rs := s.inline()
	rs[0].lo, rs[0].hi = int(id), int(id)+1
	first := s.buffer.nextID + 1
	s.runPhase(phaseSend, rs)
	var sent []Message
	for mid := first; mid <= s.buffer.nextID; mid++ {
		sent = append(sent, *s.buffer.cell(mid))
	}
	return sent, nil
}

// StepDeliver executes a receiving step, delivering buffered message msgID.
func (s *System) StepDeliver(msgID int64) error {
	m, ok := s.buffer.Get(msgID)
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNoSuchMessage, msgID)
	}
	if s.crashed[m.To] {
		return fmt.Errorf("%w: recipient %d", ErrCrashed, m.To)
	}
	m, _ = s.buffer.Take(msgID)
	s.deliver(m)
	if s.violation != nil {
		return s.violation
	}
	return nil
}

// StepReset executes a resetting step for processor id. Step mode enforces
// no per-window budget (windows do); callers running the strongly adaptive
// model should use ApplyWindow instead.
func (s *System) StepReset(id ProcID) error {
	if err := s.checkProc(id); err != nil {
		return err
	}
	if s.crashed[id] {
		return fmt.Errorf("%w: processor %d", ErrCrashed, id)
	}
	s.reset(id)
	if s.violation != nil {
		return s.violation
	}
	return nil
}

// StepCrash permanently halts processor id. At most t crashes are allowed.
func (s *System) StepCrash(id ProcID) error {
	if err := s.checkProc(id); err != nil {
		return err
	}
	if s.crashed[id] {
		return nil // crashing a crashed processor is a no-op
	}
	if s.totalCrashes >= s.t {
		return fmt.Errorf("%w: already %d crashes", ErrFaultBudget, s.totalCrashes)
	}
	s.crashed[id] = true
	s.totalCrashes++
	s.steps++
	// Messages addressed to a crashed processor are never delivered; drop
	// them so schedulers don't spin on them.
	s.buffer.DropWhere(func(m Message) bool { return m.To == id })
	s.emit(Event{Kind: EvCrash, Proc: id})
	return nil
}

// Corrupt replaces processor id's algorithm with an adversary-controlled
// Process (Byzantine corruption). At most t corruptions are allowed; a
// corrupted processor is excluded from agreement/validity/termination
// accounting, matching the standard Byzantine model.
func (s *System) Corrupt(id ProcID, evil Process) error {
	if err := s.checkProc(id); err != nil {
		return err
	}
	if evil == nil {
		return fmt.Errorf("sim: Corrupt(%d) with nil process", id)
	}
	if s.corrupt[id] {
		s.procs[id] = evil
		return nil
	}
	if s.totalCorrupt >= s.t {
		return fmt.Errorf("%w: already %d corruptions", ErrFaultBudget, s.totalCorrupt)
	}
	s.corrupt[id] = true
	s.totalCorrupt++
	s.procs[id] = evil
	return nil
}

// RunSteps executes steps chosen by adv until adv stops, every live honest
// processor decides, or maxSteps fine-grained steps have executed.
func (s *System) RunSteps(adv StepAdversary, maxSteps int64) (RunResult, error) {
	start := s.steps
	for s.steps-start < maxSteps && !s.AllDecided() {
		step, ok := adv.NextStep(s)
		if !ok {
			break
		}
		var err error
		switch step.Kind {
		case StepSend:
			_, err = s.StepSend(step.Proc)
		case StepDeliver:
			err = s.StepDeliver(step.MsgID)
		case StepReset:
			err = s.StepReset(step.Proc)
		case StepCrash:
			err = s.StepCrash(step.Proc)
		default:
			err = fmt.Errorf("sim: unknown step kind %v", step.Kind)
		}
		if err != nil {
			return s.Result(), err
		}
	}
	res := s.Result()
	res.Windows = int(s.steps - start)
	return res, s.violation
}
