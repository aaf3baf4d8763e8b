package bracha

import (
	"fmt"
	"sort"
	"unsafe"

	"asyncagree/internal/rbc"
	"asyncagree/internal/sim"
)

// Agreement is one embeddable instance of Bracha agreement over an arbitrary
// member subset, its broadcasts tagged with an integer instance id. The
// full-network Proc wraps a single Agreement; the Kapron-style committee
// algorithm runs many scoped Agreements (one per group per seed bit)
// concurrently inside one host.
type Agreement struct {
	self    sim.ProcID
	members []sim.ProcID
	n, t    int

	input   sim.Bit
	out     sim.Bit
	decided bool

	round int
	step  int
	x     sim.Bit
	mark  bool

	engine *rbc.Engine

	// rounds holds the tallies of the live rounds — the current one plus any
	// later round a faster member already broadcast in — in no particular
	// order: a handful at most, so lookup is a linear scan. Released tallies
	// stay in rounds[len:cap] with their bitsets for reuse (trial recycling,
	// DESIGN.md §2a). seenWords sizes one step's sender bitset: enough words
	// to index the highest member ID.
	rounds    []roundTally
	seenWords int
}

// roundTally is everything the protocol keeps of one round's accepted
// values: per step, which senders already had a value accepted (reliable
// broadcast accepts one value per sender and tag; the bitset drops a repeat)
// and how many accepted values carry each (V, D). The values themselves are
// not kept: validation and the step rules read only these twelve counts.
type roundTally struct {
	round int
	seen  []uint64       // step s's senders: seen[(s-1)*seenWords:][:seenWords]
	cnt   [3][2][2]int32 // cnt[step-1][V][D]
}

// NewAgreement constructs an agreement instance among members (which must
// contain self), tolerating t Byzantine members, whose reliable-broadcast
// tags all carry the instance id id. Call Start (or let the host do so) to
// queue the first broadcast.
func NewAgreement(self sim.ProcID, members []sim.ProcID, t, id int, input sim.Bit) (*Agreement, error) {
	return newAgreement(self, members, t, id, input, false)
}

// newAgreement is NewAgreement with full marking an agreement among every
// processor of the system (members 0..n-1), whose engine is built
// full-system (rbc.NewEngine): each broadcast is one message To sim.All.
func newAgreement(self sim.ProcID, members []sim.ProcID, t, id int, input sim.Bit, full bool) (*Agreement, error) {
	ms := append([]sim.ProcID(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	var engine *rbc.Engine
	var err error
	if full {
		engine, err = rbc.NewEngine(self, len(ms), t, id)
	} else {
		engine, err = rbc.NewScopedEngine(self, ms, t, id)
	}
	if err != nil {
		return nil, fmt.Errorf("bracha agreement %d: %w", id, err)
	}
	return &Agreement{
		self:    self,
		members: ms,
		n:       len(ms),
		t:       t,
		input:   input,
		round:   1,
		step:    1,
		x:       input,
		engine:  engine,
		// ms is sorted, so its last entry is the highest member ID.
		seenWords: int(ms[len(ms)-1])/64 + 1,
	}, nil
}

// Start queues the round-1 step-1 broadcast.
func (a *Agreement) Start() { a.broadcastStep() }

// Output returns the decision, if reached.
func (a *Agreement) Output() (sim.Bit, bool) { return a.out, a.decided }

// Round returns the current (round, step).
func (a *Agreement) Round() (round, step int) { return a.round, a.step }

// Value returns the current estimate.
func (a *Agreement) Value() sim.Bit { return a.x }

// Flush drains queued outgoing messages.
func (a *Agreement) Flush() []sim.Message { return a.engine.Flush() }

// Handle processes one incoming message and advances the state machine.
// The engine accepts only tags of the instance id with a member sender.
// A straggler for a completed round is dropped: its tally was already
// released (releaseRound), and progress only ever reads the current round,
// so counting the value would reopen a tally that nothing reads and nothing
// releases.
//
// progress runs only after an accept that counted. It reads nothing but the
// tallies and (round, step), and only accept changes the one while progress
// itself moves the other, so every Handle ends with progress at its fixed
// point (the current step's wait threshold unmet); the round-1 step-1 start
// that NewAgreement, Reset and Recycle leave, with every tally empty, is one
// too. From a fixed point a message that counts nothing leaves it there:
// progress would return at once, drawing no coin and queuing no broadcast,
// so skipping it changes neither the coin stream nor the outbox.
func (a *Agreement) Handle(m sim.Message, r sim.RandSource) {
	if acc := a.engine.Handle(m); acc != nil {
		round, step := acc.T.Round, acc.T.Step
		if round >= a.round && step >= 1 && step <= 3 && a.accept(round, step, acc.T.Sender, acc.Value) {
			a.progress(r)
		}
	}
}

// accept counts sender's accepted value for (round, step), once per sender,
// and reports whether it counted. sender is a member, so seen has its bit,
// and val.V is 0 or 1: the engine accepts nothing else.
func (a *Agreement) accept(round, step int, sender sim.ProcID, val rbc.Value) bool {
	rt := a.openTally(round)
	w, bit := (step-1)*a.seenWords+int(sender)>>6, uint64(1)<<(uint(sender)&63)
	if rt.seen[w]&bit != 0 {
		return false
	}
	rt.seen[w] |= bit
	d := 0
	if val.D {
		d = 1
	}
	rt.cnt[step-1][val.V][d]++
	return true
}

func (a *Agreement) broadcastStep() {
	a.engine.Broadcast(a.round, a.step, rbc.Value{V: a.x, D: a.mark && a.step == 3})
}

// tally returns the live tally of round, or nil.
func (a *Agreement) tally(round int) *roundTally {
	for i := range a.rounds {
		if a.rounds[i].round == round {
			return &a.rounds[i]
		}
	}
	return nil
}

// openTally returns the tally of round, opening a zeroed one (a released
// slot, if any) when the round has none yet. The pointer is valid until the
// next openTally or releaseRound.
func (a *Agreement) openTally(round int) *roundTally {
	if rt := a.tally(round); rt != nil {
		return rt
	}
	k := len(a.rounds)
	if k < cap(a.rounds) {
		a.rounds = a.rounds[:k+1]
	} else {
		a.rounds = append(a.rounds, roundTally{})
	}
	rt := &a.rounds[k]
	if rt.seen == nil {
		rt.seen = make([]uint64, 3*a.seenWords)
	}
	rt.round = round
	return rt
}

// releaseRound zeroes a completed round's tally and parks it past the live
// prefix for reuse.
func (a *Agreement) releaseRound(round int) {
	rt := a.tally(round)
	if rt == nil {
		return
	}
	clear(rt.seen)
	rt.cnt = [3][2][2]int32{}
	last := &a.rounds[len(a.rounds)-1]
	*rt, *last = *last, *rt
	a.rounds = a.rounds[:len(a.rounds)-1]
}

// validCounts tallies the accepted values for (round, step) that pass
// Bracha's message validation (see the package comment): the number of
// validated senders, the per-value totals, and — step 3 only — the
// per-value totals of validated *marked* values.
func (a *Agreement) validCounts(round, step int) (valid int, count, marked [2]int) {
	rt := a.tally(round)
	if rt == nil {
		return 0, count, marked
	}
	return rt.validCounts(step, a.n, a.t)
}

// validCounts is the validation rule as a function of the round's twelve
// counters alone. Whether an accepted value counts depends only on its step,
// its (V, D) and the previous step's total for V — never on who sent it — so
// summing whole (V, D) classes equals scanning the accepted values one by
// one: a step-2 value v is valid iff 2*cnt1[v] > n-t (some (n-t)-subset of
// step 1 has majority v), a marked step-3 value iff 2*cnt2[v] > n, everything
// else always. Nothing is latched: a class that fails today is re-judged on
// the next call, and since a round's counters only grow, one that passes
// keeps passing.
func (rt *roundTally) validCounts(step, n, t int) (valid int, count, marked [2]int) {
	cnt := &rt.cnt
	total := func(step int, v sim.Bit) int { // accepted step values carrying v, marked or not
		return int(cnt[step-1][v][0] + cnt[step-1][v][1])
	}
	for v := sim.Bit(0); v <= 1; v++ {
		switch step {
		case 1:
			count[v] = total(1, v)
		case 2:
			if 2*total(1, v) > n-t {
				count[v] = total(2, v)
			}
		case 3:
			count[v] = int(cnt[2][v][0]) // unmarked: always valid
			if 2*total(2, v) > n {       // marked: needs step-2 justification
				marked[v] = int(cnt[2][v][1])
				count[v] += marked[v]
			}
		}
	}
	return count[0] + count[1], count, marked
}

// progress advances through steps while the current step's wait threshold
// (n-t validated accepted values) is met.
func (a *Agreement) progress(r sim.RandSource) {
	for {
		valid, count, marked := a.validCounts(a.round, a.step)
		if valid < a.n-a.t {
			return
		}
		switch a.step {
		case 1:
			if count[1] > count[0] {
				a.x = 1
			} else {
				a.x = 0
			}
			a.step = 2
		case 2:
			a.mark = false
			for v := sim.Bit(0); v <= 1; v++ {
				if 2*count[v] > a.n {
					a.x, a.mark = v, true
				}
			}
			a.step = 3
		case 3:
			switch {
			case marked[0] >= 2*a.t+1:
				a.decide(0)
				a.x = 0
			case marked[1] >= 2*a.t+1:
				a.decide(1)
				a.x = 1
			case marked[0] >= a.t+1:
				a.x = 0
			case marked[1] >= a.t+1:
				a.x = 1
			default:
				a.x = sim.Bit(r.Bit())
			}
			a.mark = false
			a.releaseRound(a.round)
			a.engine.ForgetBefore(a.round)
			a.round++
			a.step = 1
		}
		a.broadcastStep()
	}
}

func (a *Agreement) decide(v sim.Bit) {
	if !a.decided {
		a.out, a.decided = v, true
	}
}

// RetainedBytes estimates the bytes the agreement keeps across Recycle: its
// round tallies, live and released, and its RBC engine.
func (a *Agreement) RetainedBytes() int64 {
	b := a.engine.RetainedBytes() + int64(unsafe.Sizeof(roundTally{}))*int64(cap(a.rounds))
	for _, rt := range a.rounds[:cap(a.rounds)] {
		b += 8 * int64(cap(rt.seen))
	}
	return b
}

// InstanceCount exposes the engine's live RBC instance count (memory
// accounting).
func (a *Agreement) InstanceCount() int { return a.engine.InstanceCount() }

// Reset erases all protocol state and restarts from round 1.
func (a *Agreement) Reset() {
	a.rewind(a.input)
}

// Recycle rewinds the instance to the state NewAgreement + Start would
// produce for the given input, keeping the round tallies, RBC engine
// structures, and outbox capacity (trial recycling).
func (a *Agreement) Recycle(input sim.Bit) {
	a.input = input
	a.out = 0
	a.rewind(input)
}

// rewind restarts the protocol from round 1 with estimate x, reusing
// allocated structures (shared by Reset and Recycle).
func (a *Agreement) rewind(x sim.Bit) {
	a.round, a.step = 1, 1
	a.x = x
	a.mark = false
	a.decided = false
	for len(a.rounds) > 0 {
		a.releaseRound(a.rounds[0].round)
	}
	a.engine.Reset()
	a.broadcastStep()
}

// ReclaimPayload forwards the System's dead payload boxes to the RBC
// engine's pool; hosts embedding an Agreement implement
// sim.PayloadReclaimer by delegating here.
func (a *Agreement) ReclaimPayload(payload any) { a.engine.ReclaimPayload(payload) }
