// Package benor implements Ben-Or's randomized binary consensus protocol
// (PODC 1983) for the asynchronous crash-failure model with t < n/2, in the
// formulation whose correctness was proven by Aguilera and Toueg (Distributed
// Computing 2012) — reference [1] of the paper.
//
// Each round r has two phases:
//
//	phase 1 (report):   broadcast (r, 1, x). Wait for n-t round-r reports.
//	                    If more than n/2 carry the same bit v, propose v;
//	                    otherwise propose '?'.
//	phase 2 (proposal): broadcast (r, 2, proposal). Wait for n-t round-r
//	                    proposals. If at least t+1 carry the same bit v,
//	                    decide v. If at least one carries a bit v, set x = v.
//	                    Otherwise set x to a fresh random bit. Then r += 1.
//
// Since two conflicting valued proposals would each require more than n/2
// reports of their value, at most one value is ever proposed per round, which
// gives agreement; unanimous inputs decide in round 1, which gives validity.
//
// The protocol is *forgetful* and *fully communicative* in the sense of
// Definitions 15 and 16 of the paper (messages depend only on the input bit,
// the most recently received n-t messages, and fresh randomness; receiving
// n-t fresh messages always triggers a broadcast to all n), so Theorem 17's
// exponential lower bound on message-chain length applies to it — experiment
// E8 measures exactly that.
package benor

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"asyncagree/internal/sim"
)

// Phase identifies the two message types of a round.
type Phase int

const (
	// PhaseReport is phase 1 (the (r, x) report).
	PhaseReport Phase = 1
	// PhaseProposal is phase 2 (the (r, v|?) proposal).
	PhaseProposal Phase = 2
)

// Msg is the Ben-Or message payload.
type Msg struct {
	// R is the round, P the phase.
	R int
	P Phase
	// V is the carried bit; Valued is false for a '?' proposal (and always
	// true for reports).
	V      sim.Bit
	Valued bool
}

// ExtractVote exposes report contents to algorithm-agnostic adversaries: it
// returns the carried bit of a valued message and ok=false for '?' proposals
// or foreign payloads. Reports and valued proposals are both bit-bearing.
// The payload is the pooled *Msg box the protocol sends.
func ExtractVote(m sim.Message) (round int, phase Phase, value sim.Bit, ok bool) {
	p, ok := m.Payload.(*Msg)
	if !ok || !p.Valued {
		return 0, 0, 0, false
	}
	return p.R, p.P, p.V, true
}

// Proc is one processor running Ben-Or. It implements sim.Process.
type Proc struct {
	id   sim.ProcID
	n, t int

	input   sim.Bit
	out     sim.Bit
	decided bool

	round int
	phase Phase
	x     sim.Bit

	// votes records the first message per (round, phase, sender), keyed
	// sim.VoteKey(round, phase): bits, and '?' for unvalued proposals (whose
	// senders count towards the wait but towards neither value).
	votes sim.Ledger

	// queue holds the broadcasts. (round, phase) keys strictly ascend within
	// a window — the sim.VotePublisher contract.
	queue sim.BroadcastQueue[Msg]
}

// key is the ledger key of the current wait: round, then phase — exactly
// the order the staleness rule compares in.
func (p *Proc) key() int { return sim.VoteKey(p.round, uint8(p.phase)) }

var (
	_ sim.Process       = (*Proc)(nil)
	_ sim.RetainedBytes = (*Proc)(nil)
)

// RetainedBytes implements sim.RetainedBytes: the processor, its vote
// ledger and its broadcast queue.
func (p *Proc) RetainedBytes() int64 {
	return int64(unsafe.Sizeof(*p)) + p.votes.RetainedBytes() + p.queue.RetainedBytes()
}

// New constructs a Ben-Or processor. It returns an error unless 0 <= t < n/2.
func New(id sim.ProcID, n, t int, input sim.Bit) (*Proc, error) {
	if t < 0 || 2*t >= n {
		return nil, fmt.Errorf("benor: need 0 <= t < n/2, got n=%d t=%d", n, t)
	}
	p := &Proc{
		id:    id,
		n:     n,
		t:     t,
		input: input,
		round: 1,
		phase: PhaseReport,
		x:     input,
		votes: sim.NewLedger(n, 3),
	}
	p.queueBroadcast(Msg{R: 1, P: PhaseReport, V: input, Valued: true})
	return p, nil
}

// NewFactory returns a sim.Config-compatible constructor.
func NewFactory(n, t int) func(sim.ProcID, sim.Bit) sim.Process {
	if t < 0 || 2*t >= n {
		panic(fmt.Sprintf("benor: invalid parameters n=%d t=%d (need t >= 0 and n > 2t)", n, t))
	}
	return func(id sim.ProcID, input sim.Bit) sim.Process {
		p, err := New(id, n, t, input)
		if err != nil {
			panic("benor: " + err.Error()) // unreachable: parameters validated above
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

// Round returns the current (round, phase) for adversaries and tests.
func (p *Proc) Round() (int, Phase) { return p.round, p.phase }

// Value returns the current estimate x.
func (p *Proc) Value() sim.Bit { return p.x }

// queueBroadcast queues m to all n processors.
func (p *Proc) queueBroadcast(m Msg) { p.queue.Queue(m) }

// ReclaimPayload implements sim.PayloadReclaimer: the System returns the
// payload boxes of a completed window's batch, one call per box.
func (p *Proc) ReclaimPayload(payload any) { p.queue.Reclaim(payload) }

// Send implements sim.Process.
func (p *Proc) Send() []sim.Message { return p.queue.Send(p.id) }

// Deliver implements sim.Process.
func (p *Proc) Deliver(m sim.Message, r sim.RandSource) {
	msg, ok := m.Payload.(*Msg)
	if !ok {
		return // foreign or corrupted payload: ignore
	}
	if msg.P != PhaseReport && msg.P != PhaseProposal {
		return
	}
	key := sim.VoteKey(msg.R, uint8(msg.P))
	if key < p.key() {
		return // stale
	}
	// Reports carry V unconditionally (Valued is set by honest senders; an
	// unvalued report still tallies its V field). At most one message per
	// (sender, round, phase) counts; a V that is no bit is corrupted, and an
	// unauthenticated sender cannot occur through sim.
	if p.votes.Add(key, msg.V, msg.Valued || msg.P == PhaseReport, m.From) {
		p.drain(r)
	}
}

// drain runs phase evaluations to a fixpoint: the wait threshold is n-t
// messages for the current (round, phase), and completing one phase may
// unlock the next from buffered messages.
func (p *Proc) drain(r sim.RandSource) {
	for p.votes.Seen(p.key()) >= p.n-p.t {
		count := p.votes.Counts(p.key())
		if p.phase == PhaseReport {
			p.evalReport(count)
		} else {
			p.evalProposal(count, r)
		}
		p.votes.DropBelow(p.key())
	}
}

// evalReport executes the end of phase 1 on the per-bit report counts.
func (p *Proc) evalReport(count [2]int) {
	prop := Msg{R: p.round, P: PhaseProposal}
	for v := sim.Bit(0); v <= 1; v++ {
		if 2*count[v] > p.n {
			prop.V, prop.Valued = v, true
		}
	}
	p.phase = PhaseProposal
	p.queueBroadcast(prop)
}

// evalProposal executes the end of phase 2 on the per-bit counts of the
// valued proposals.
func (p *Proc) evalProposal(count [2]int, r sim.RandSource) {
	switch {
	case count[0] > 0 && count[1] > 0:
		// Impossible under the protocol (two majorities would intersect);
		// reachable only via corruption. Treat as no information.
		p.x = sim.Bit(r.Bit())
	case count[0] >= p.t+1:
		if !p.decided {
			p.out, p.decided = 0, true
		}
		p.x = 0
	case count[1] >= p.t+1:
		if !p.decided {
			p.out, p.decided = 1, true
		}
		p.x = 1
	case count[0] > 0:
		p.x = 0
	case count[1] > 0:
		p.x = 1
	default:
		p.x = sim.Bit(r.Bit())
	}
	p.round++
	p.phase = PhaseReport
	p.queueBroadcast(Msg{R: p.round, P: PhaseReport, V: p.x, Valued: true})
}

// Recycle implements sim.Recycler: it rewinds the processor to the state
// New would produce for the given input, keeping the ledger's pooled tallies
// and the queue's boxes and capacity so a recycled trial allocates nothing
// here.
func (p *Proc) Recycle(input sim.Bit) {
	p.input = input
	p.out, p.decided = 0, false
	p.Reset()
}

// Reset implements sim.Process. Ben-Or is NOT designed for resetting
// failures: a reset processor simply restarts from round 1 with its input.
// The repository uses this only to demonstrate that reset-tolerance is a
// genuine extra property of the core algorithm, not a freebie.
func (p *Proc) Reset() {
	p.round = 1
	p.phase = PhaseReport
	p.x = p.input
	p.votes.Clear()
	p.queue.Discard()
	p.queueBroadcast(Msg{R: 1, P: PhaseReport, V: p.x, Valued: true})
}

// Snapshot implements sim.Process.
func (p *Proc) Snapshot() string {
	var b strings.Builder
	b.WriteString("r=")
	b.WriteString(strconv.Itoa(p.round))
	b.WriteString(" p=")
	b.WriteString(strconv.Itoa(int(p.phase)))
	b.WriteString(" x=")
	b.WriteByte('0' + byte(p.x))
	b.WriteString(" out=")
	if p.decided {
		b.WriteByte('0' + byte(p.out))
	} else {
		b.WriteByte('_')
	}
	return b.String()
}
