// Package bracha implements Bracha's asynchronous Byzantine agreement
// protocol (PODC 1984) with optimal resilience t < n/3, built on the
// reliable-broadcast primitive of internal/rbc.
//
// Each round r has three steps; every step's value is disseminated with
// reliable broadcast (so Byzantine processors cannot equivocate):
//
//	step 1: broadcast (r, 1, x). Wait for n-t accepted step-1 values;
//	        set x to their majority value.
//	step 2: broadcast (r, 2, x). Wait for n-t accepted step-2 values; if
//	        more than n/2 carry the same v, set x = v and mark it decided-
//	        candidate (D); otherwise x is unmarked.
//	step 3: broadcast (r, 3, x[, D]). Wait for n-t accepted step-3 values.
//	        If at least 2t+1 carry the same marked v: decide v.
//	        Else if at least t+1 carry some marked v: set x = v.
//	        Else: set x to a fresh random bit. Then r += 1.
//
// As in Bracha's paper, received claims are *validated* before they are
// counted: a step-2 value v only counts once the receiver's own step-1 tally
// could justify it (some (n-t)-subset has majority v), and a marked step-3
// value v only counts once the receiver's step-2 tally of v exceeds n/2.
// Byzantine processors therefore cannot smuggle in unjustified marks; by RBC
// totality every honest claim eventually validates at every honest receiver.
//
// Because a marked value requires more than n/2 step-2 acceptances and
// reliable broadcast prevents equivocation, no two processors can carry
// conflicting marked values into step 3, which yields agreement; unanimous
// inputs decide in round 1, which yields validity. Like Ben-Or, the protocol
// is exponentially slow on split inputs against a full-information adversary
// — the slowness the paper proves inherent (Theorems 5 and 17).
//
// The protocol logic lives in the embeddable Agreement type, which can be
// scoped to an arbitrary member subset; Proc wraps one full-network
// Agreement as a sim.Process. The Kapron-style committee algorithm
// (internal/committee) runs many scoped Agreements inside one host.
package bracha

import (
	"fmt"
	"unsafe"

	"asyncagree/internal/rbc"
	"asyncagree/internal/sim"
)

// procID is the reliable-broadcast instance id of a Proc's agreement.
const procID = 0

// Proc is one processor running Bracha agreement over the full network. It
// implements sim.Process.
type Proc struct {
	id    sim.ProcID
	n, t  int
	input sim.Bit

	// Write-once output (latched from the agreement; survives Reset).
	out     sim.Bit
	decided bool

	ag *Agreement

	resetCounter int
}

var (
	_ sim.Process       = (*Proc)(nil)
	_ sim.RetainedBytes = (*Proc)(nil)
)

// New constructs a Bracha processor. It returns an error unless
// 3t < n <= rbc.MaxMembers.
func New(id sim.ProcID, n, t int, input sim.Bit) (*Proc, error) {
	members := make([]sim.ProcID, n)
	for i := range members {
		members[i] = sim.ProcID(i)
	}
	ag, err := newAgreement(id, members, t, procID, input, true)
	if err != nil {
		return nil, err
	}
	ag.Start()
	return &Proc{id: id, n: n, t: t, input: input, ag: ag}, nil
}

// NewFactory returns a sim.Config-compatible constructor.
func NewFactory(n, t int) func(sim.ProcID, sim.Bit) sim.Process {
	if t < 0 || n <= 3*t || n > rbc.MaxMembers {
		panic(fmt.Sprintf("bracha: invalid parameters n=%d t=%d (need t >= 0 and 3t < n <= %d)", n, t, rbc.MaxMembers))
	}
	return func(id sim.ProcID, input sim.Bit) sim.Process {
		p, err := New(id, n, t, input)
		if err != nil {
			panic("bracha: " + err.Error()) // unreachable: parameters validated above
		}
		return p
	}
}

// ID implements sim.Process.
func (p *Proc) ID() sim.ProcID { return p.id }

// Input implements sim.Process.
func (p *Proc) Input() sim.Bit { return p.input }

// Output implements sim.Process.
func (p *Proc) Output() (sim.Bit, bool) { return p.out, p.decided }

// Round returns the current (round, step).
func (p *Proc) Round() (round, step int) { return p.ag.Round() }

// Value returns the current estimate.
func (p *Proc) Value() sim.Bit { return p.ag.Value() }

// Agreement exposes the underlying instance (tests and memory accounting).
func (p *Proc) Agreement() *Agreement { return p.ag }

// Send implements sim.Process.
func (p *Proc) Send() []sim.Message { return p.ag.Flush() }

// ReclaimPayload implements sim.PayloadReclaimer: the System returns the
// payload boxes of a completed window's batch to the RBC engine's pool.
func (p *Proc) ReclaimPayload(payload any) { p.ag.ReclaimPayload(payload) }

// Deliver implements sim.Process.
func (p *Proc) Deliver(m sim.Message, r sim.RandSource) {
	p.ag.Handle(m, r)
	if v, ok := p.ag.Output(); ok && !p.decided {
		p.out, p.decided = v, true
	}
}

// Recycle implements sim.Recycler: it rewinds the processor (and its
// embedded agreement + RBC engine) to the state New would produce for the
// given input, reusing their allocated structures.
func (p *Proc) Recycle(input sim.Bit) {
	p.input = input
	p.out, p.decided = 0, false
	p.resetCounter = 0
	p.ag.Recycle(input)
}

// RetainedBytes implements sim.RetainedBytes: the processor and its
// agreement's tallies and RBC engine.
func (p *Proc) RetainedBytes() int64 { return int64(unsafe.Sizeof(*p)) + p.ag.RetainedBytes() }

// Reset implements sim.Process. Bracha is not reset-tolerant; like Ben-Or it
// restarts from round 1 (used only to demonstrate the contrast with the core
// algorithm). The written output bit survives, per the model.
func (p *Proc) Reset() {
	p.resetCounter++
	p.ag.Reset()
}

// Snapshot implements sim.Process.
func (p *Proc) Snapshot() string {
	out := "_"
	if p.decided {
		out = string('0' + byte(p.out))
	}
	r, s := p.ag.Round()
	return fmt.Sprintf("r=%d s=%d x=%d out=%s", r, s, p.ag.Value(), out)
}
