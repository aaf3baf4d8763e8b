package bracha

import (
	"asyncagree/internal/rbc"
	"asyncagree/internal/sim"
)

// This file provides adversary-controlled (Byzantine) processor strategies
// used with sim.System.Corrupt. They implement sim.Process but ignore the
// honest protocol.

// Silent is a Byzantine processor that never sends anything — the classic
// "corrupted processors may simulate crashed processors" behaviour.
type Silent struct {
	id sim.ProcID
}

var _ sim.Process = (*Silent)(nil)

// NewSilent returns a Silent strategy for processor id.
func NewSilent(id sim.ProcID) *Silent { return &Silent{id: id} }

// ID implements sim.Process.
func (s *Silent) ID() sim.ProcID { return s.id }

// Input implements sim.Process.
func (s *Silent) Input() sim.Bit { return 0 }

// Output implements sim.Process.
func (s *Silent) Output() (sim.Bit, bool) { return 0, false }

// Send implements sim.Process.
func (s *Silent) Send() []sim.Message { return nil }

// Deliver implements sim.Process.
func (s *Silent) Deliver(sim.Message, sim.RandSource) {}

// Reset implements sim.Process.
func (s *Silent) Reset() {}

// Snapshot implements sim.Process.
func (s *Silent) Snapshot() string { return "byz-silent" }

// Equivocator is a Byzantine processor that attacks reliable broadcast
// directly: for each of the first Rounds rounds and each step it sends
// INIT(0) to the lower half of the ring and INIT(1) to the upper half under
// the same tag of a Proc's agreement, then refuses to echo anything. RBC
// consistency must ensure no two honest processors accept different values
// for any of its tags.
type Equivocator struct {
	id     sim.ProcID
	n      int
	rounds int
	sent   bool
}

var _ sim.Process = (*Equivocator)(nil)

// NewEquivocator returns an Equivocator for processor id in an n-processor
// system, equivocating for the first rounds rounds.
func NewEquivocator(id sim.ProcID, n, rounds int) *Equivocator {
	return &Equivocator{id: id, n: n, rounds: rounds}
}

// ID implements sim.Process.
func (e *Equivocator) ID() sim.ProcID { return e.id }

// Input implements sim.Process.
func (e *Equivocator) Input() sim.Bit { return 0 }

// Output implements sim.Process.
func (e *Equivocator) Output() (sim.Bit, bool) { return 0, false }

// Send implements sim.Process.
func (e *Equivocator) Send() []sim.Message {
	if e.sent {
		return nil
	}
	e.sent = true
	var out []sim.Message
	for r := 1; r <= e.rounds; r++ {
		for s := 1; s <= 3; s++ {
			tag := rbc.Tag{Sender: e.id, ID: procID, Round: r, Step: s}
			lower := &rbc.Msg{T: tag, Kind: rbc.KindInit, Value: rbc.Value{V: 0}}
			upper := &rbc.Msg{T: tag, Kind: rbc.KindInit, Value: rbc.Value{V: 1}}
			for q := 0; q < e.n; q++ {
				m := sim.Message{From: e.id, To: sim.ProcID(q), Payload: lower}
				if q >= e.n/2 {
					m.Payload = upper
				}
				out = append(out, m)
			}
		}
	}
	return out
}

// Deliver implements sim.Process.
func (e *Equivocator) Deliver(sim.Message, sim.RandSource) {}

// Reset implements sim.Process.
func (e *Equivocator) Reset() { e.sent = false }

// Snapshot implements sim.Process.
func (e *Equivocator) Snapshot() string { return "byz-equivocator" }

// FalseVoter runs the honest protocol but always injects the opposite bit
// into step-1 broadcasts, trying to drag the estimate away from the honest
// majority. It wraps an honest Proc and rewrites its outgoing INIT values.
type FalseVoter struct {
	inner *Proc
}

var _ sim.Process = (*FalseVoter)(nil)

// NewFalseVoter returns a FalseVoter wrapping an honest processor instance.
func NewFalseVoter(inner *Proc) *FalseVoter { return &FalseVoter{inner: inner} }

// ID implements sim.Process.
func (f *FalseVoter) ID() sim.ProcID { return f.inner.ID() }

// Input implements sim.Process.
func (f *FalseVoter) Input() sim.Bit { return f.inner.Input() }

// Output implements sim.Process.
func (f *FalseVoter) Output() (sim.Bit, bool) { return 0, false }

// Send implements sim.Process: flips the bit in outgoing INITs of its own
// broadcasts. The inner engine's broadcasts share one pooled *rbc.Msg box
// across all copies, so a box is flipped exactly once (flipping per copy
// would toggle the value back and forth); copies of one broadcast are
// consecutive, making last-pointer dedup sufficient.
func (f *FalseVoter) Send() []sim.Message {
	msgs := f.inner.Send()
	var last *rbc.Msg
	for _, m := range msgs {
		rm, ok := m.Payload.(*rbc.Msg)
		if !ok || rm == last {
			continue // not a broadcast, or another copy of a flipped one
		}
		last = rm
		if rm.Kind == rbc.KindInit && rm.T.Sender == f.inner.ID() {
			rm.Value.V = 1 - rm.Value.V
		}
	}
	return msgs
}

// ReclaimPayload implements sim.PayloadReclaimer by forwarding the dead
// payload boxes to the wrapped processor's pool.
func (f *FalseVoter) ReclaimPayload(payload any) { f.inner.ReclaimPayload(payload) }

// Deliver implements sim.Process.
func (f *FalseVoter) Deliver(m sim.Message, r sim.RandSource) { f.inner.Deliver(m, r) }

// Reset implements sim.Process.
func (f *FalseVoter) Reset() { f.inner.Reset() }

// Snapshot implements sim.Process.
func (f *FalseVoter) Snapshot() string { return "byz-falsevoter " + f.inner.Snapshot() }
