// Package core implements the paper's Section 3 agreement algorithm: the
// Ben-Or/Bracha-style threshold protocol that achieves measure-one
// correctness and termination against the strongly adaptive (resetting)
// adversary for t < n/6 (Theorem 4).
//
// Per processor p the algorithm keeps a round number r_p (starting at 1) and
// a current value x_p (starting at the input bit) and loops:
//
//	step 1: send (r_p, x_p) to all processors.
//	step 2: wait for T1 messages (r_q, x_q) with r_q = r_p.
//	step 3: if >= T2 of them carry the same bit v, write v to the output bit
//	        (if unwritten). If >= T3 carry the same bit v, set x_p = v;
//	        otherwise set x_p to a fresh uniformly random bit.
//	step 4: r_p += 1; goto step 1.
//
// Reset handling: a processor that detects it was reset refrains from
// sending, waits for T1 messages sharing a common round value r, adopts that
// round, and re-enters at step 3.
//
// Theorem 4 requires n-2t >= T1 >= T2 >= T3+t and 2*T3 > n, achievable for
// t < n/6 with the defaults T1 = T2 = n-2t, T3 = n-3t.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"asyncagree/internal/sim"
)

// Thresholds holds the three protocol thresholds T1 >= T2 >= T3.
type Thresholds struct {
	T1, T2, T3 int
}

// DefaultThresholds returns the Theorem 4 defaults T1 = T2 = n-2t,
// T3 = n-3t, which satisfy the constraints exactly when t < n/6.
func DefaultThresholds(n, t int) (Thresholds, error) {
	th := Thresholds{T1: n - 2*t, T2: n - 2*t, T3: n - 3*t}
	if err := th.Validate(n, t); err != nil {
		return Thresholds{}, err
	}
	return th, nil
}

// Validate checks the Theorem 4 constraints:
// n-2t >= T1 >= T2 >= T3+t and 2*T3 > n (which also gives 2*T2 > n).
func (th Thresholds) Validate(n, t int) error {
	switch {
	case t < 0 || t >= n:
		return fmt.Errorf("core: need 0 <= t < n, got t=%d n=%d", t, n)
	case th.T1 > n-2*t:
		return fmt.Errorf("core: T1=%d > n-2t=%d", th.T1, n-2*t)
	case th.T1 < th.T2:
		return fmt.Errorf("core: T1=%d < T2=%d", th.T1, th.T2)
	case th.T2 < th.T3+t:
		return fmt.Errorf("core: T2=%d < T3+t=%d", th.T2, th.T3+t)
	case 2*th.T3 <= n:
		return fmt.Errorf("core: 2*T3=%d <= n=%d", 2*th.T3, n)
	case th.T1 <= 0:
		return fmt.Errorf("core: T1=%d must be positive", th.T1)
	}
	return nil
}

// Feasible reports whether any thresholds satisfying Theorem 4 exist for
// (n, t). The binding constraints force T3 > n/2 and T1 <= n-2t with
// T1 >= T3 + t, so feasibility is equivalent to n-2t >= floor(n/2)+1+t,
// i.e. t < n/6 up to rounding.
func Feasible(n, t int) bool {
	_, err := DefaultThresholds(n, t)
	return err == nil
}

// Vote is the (r, x) message payload of the protocol.
type Vote struct {
	// R is the sender's round number, X its current value.
	R int
	X sim.Bit
}

// ExtractVote exposes the round/value content of a core message — the
// pooled *Vote box the protocol sends — to algorithm-agnostic adversaries
// (notably the split-vote adversary).
func ExtractVote(m sim.Message) (round int, value sim.Bit, ok bool) {
	if v, ok := m.Payload.(*Vote); ok {
		return v.R, v.X, true
	}
	return 0, 0, false
}

// Proc is one processor running the Section 3 algorithm. It implements
// sim.Process.
type Proc struct {
	id   sim.ProcID
	n, t int
	th   Thresholds

	input sim.Bit

	// Write-once output.
	out     sim.Bit
	decided bool

	// round is the current round r_p; syncing marks the post-reset state in
	// which the round is unknown (the paper's "blank r value").
	round   int
	syncing bool
	x       sim.Bit

	// votes tallies the votes received per round (key voteKey(r)): bits
	// only. Each round's threshold evaluation happens exactly when the T1-th
	// distinct sender for the current round arrives.
	votes sim.Ledger

	// resetCounter implements the paper's reset-detection bookkeeping: it
	// survives resets and increments on each one.
	resetCounter int

	// queue holds the broadcasts, one Vote per round advance. Within a
	// window its records strictly ascend in round (evaluate queues exactly
	// one per advance and Reset discards before re-queueing), the
	// publish-order invariant sim.VotePublisher requires.
	queue sim.BroadcastQueue[Vote]
}

// voteKey is the ledger key of round r's votes (the protocol has one record
// class).
func voteKey(r int) int { return sim.VoteKey(r, 0) }

var (
	_ sim.Process       = (*Proc)(nil)
	_ sim.RetainedBytes = (*Proc)(nil)
)

// RetainedBytes implements sim.RetainedBytes: the processor, its vote
// ledger and its broadcast queue.
func (p *Proc) RetainedBytes() int64 {
	return int64(unsafe.Sizeof(*p)) + p.votes.RetainedBytes() + p.queue.RetainedBytes()
}

// New constructs a processor with the given thresholds. It returns an error
// if the thresholds violate Theorem 4's constraints.
func New(id sim.ProcID, n, t int, th Thresholds, input sim.Bit) (*Proc, error) {
	if err := th.Validate(n, t); err != nil {
		return nil, err
	}
	p := &Proc{
		id:    id,
		n:     n,
		t:     t,
		th:    th,
		input: input,
		round: 1,
		x:     input,
		votes: sim.NewLedger(n, 2),
	}
	p.queueBroadcast()
	return p, nil
}

// NewFactory returns a sim.Config-compatible constructor; it panics only on
// invalid thresholds, which callers should have validated.
func NewFactory(n, t int, th Thresholds) func(sim.ProcID, sim.Bit) sim.Process {
	if err := th.Validate(n, t); err != nil {
		panic("core: invalid thresholds passed to NewFactory: " + err.Error())
	}
	return func(id sim.ProcID, input sim.Bit) sim.Process {
		p, err := New(id, n, t, th, input)
		if err != nil {
			panic("core: " + err.Error()) // unreachable: thresholds validated above
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

// Round returns the current round number (for adversaries and tests); the
// second result is false while the processor is resynchronizing after a
// reset.
func (p *Proc) Round() (int, bool) { return p.round, !p.syncing }

// Value returns the current value x_p (full-information adversaries may
// read it).
func (p *Proc) Value() sim.Bit { return p.x }

// Resets returns the reset counter.
func (p *Proc) Resets() int { return p.resetCounter }

// queueBroadcast queues (round, x) to all n processors.
func (p *Proc) queueBroadcast() { p.queue.Queue(Vote{R: p.round, X: p.x}) }

// ReclaimPayload implements sim.PayloadReclaimer: the System returns the
// payload boxes of a completed window's batch, one call per box.
func (p *Proc) ReclaimPayload(payload any) { p.queue.Reclaim(payload) }

// Send implements sim.Process. A reset processor has nothing queued until
// it resynchronizes, implementing "a newly reset processor refrains from
// sending messages until it resumes normal operation".
func (p *Proc) Send() []sim.Message { return p.queue.Send(p.id) }

// Deliver implements sim.Process.
func (p *Proc) Deliver(m sim.Message, r sim.RandSource) {
	v, ok := m.Payload.(*Vote)
	if !ok {
		return // foreign or corrupted payload: ignore
	}
	if !p.syncing && v.R < p.round {
		return // stale round, irrelevant
	}
	if !p.votes.Add(voteKey(v.R), v.X, true, m.From) {
		// At most one vote per (sender, round); a value that is no bit is
		// corrupted, and an unauthenticated sender cannot occur through sim.
		return
	}
	if p.syncing {
		// Post-reset: wait for T1 messages sharing a common round value,
		// adopt it, and re-enter at step 3.
		if p.votes.Seen(voteKey(v.R)) >= p.th.T1 {
			p.round = v.R
			p.syncing = false
			p.evaluate(r)
		}
		return
	}
	p.cascade(r)
}

// cascade evaluates the moment the current round completes. Advancing may
// complete the next round from already-buffered votes, so it loops.
func (p *Proc) cascade(r sim.RandSource) {
	for p.votes.Seen(voteKey(p.round)) >= p.th.T1 {
		p.evaluate(r)
	}
}

// evaluate performs step 3 and step 4 for the current round, which has
// gathered at least T1 votes.
func (p *Proc) evaluate(r sim.RandSource) {
	count := p.votes.Counts(voteKey(p.round))
	// step 3: decide at T2, adopt at T3, otherwise flip the local coin.
	for v := sim.Bit(0); v <= 1; v++ {
		if count[v] >= p.th.T2 && !p.decided {
			p.out = v
			p.decided = true
		}
	}
	switch {
	case count[0] >= p.th.T3:
		p.x = 0
	case count[1] >= p.th.T3:
		p.x = 1
	default:
		p.x = sim.Bit(r.Bit())
	}
	// step 4: advance and broadcast; discard old-round bookkeeping.
	p.round++
	p.queueBroadcast()
	p.votes.DropBelow(voteKey(p.round))
}

// Recycle implements sim.Recycler: it rewinds the processor to the state
// New would produce for the given input, keeping the ledger's pooled tallies
// and the queue's boxes and capacity so a recycled trial allocates nothing
// here.
func (p *Proc) Recycle(input sim.Bit) {
	p.input = input
	p.out, p.decided = 0, false
	p.round = 1
	p.syncing = false
	p.x = input
	p.votes.Clear()
	p.resetCounter = 0
	p.queue.Discard()
	p.queueBroadcast()
}

// Reset implements sim.Process: it erases everything except the input bit,
// output bit, identity, and the reset counter.
func (p *Proc) Reset() {
	p.resetCounter++
	p.round = 0
	p.syncing = true
	p.x = p.input // placeholder; x is re-derived at step 3 on rejoin
	p.votes.Clear()
	p.queue.Discard()
}

// Snapshot implements sim.Process. The encoding is
// "r=<round|sync> x=<x> out=<bit|_> rc=<resets>".
func (p *Proc) Snapshot() string {
	var b strings.Builder
	b.WriteString("r=")
	if p.syncing {
		b.WriteString("sync")
	} else {
		b.WriteString(strconv.Itoa(p.round))
	}
	b.WriteString(" x=")
	b.WriteByte('0' + byte(p.x))
	b.WriteString(" out=")
	if p.decided {
		b.WriteByte('0' + byte(p.out))
	} else {
		b.WriteByte('_')
	}
	b.WriteString(" rc=")
	b.WriteString(strconv.Itoa(p.resetCounter))
	return b.String()
}

// ProjectedSnapshot returns the round-free projection (x, out) used by the
// lower-bound machinery: Hamming distance between decision sets is measured
// over the decision-relevant part of the state.
func (p *Proc) ProjectedSnapshot() string {
	out := "_"
	if p.decided {
		out = string('0' + byte(p.out))
	}
	return string('0'+byte(p.x)) + out
}
