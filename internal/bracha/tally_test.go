package bracha

import (
	"fmt"
	"slices"
	"testing"

	"asyncagree/internal/rbc"
	"asyncagree/internal/rng"
	"asyncagree/internal/sim"
)

// refAgreement is the accumulator Agreement used before its per-round
// counters, kept as the reference the counters are checked against: every
// accepted value is stored under acc[round][step][sender] and validation
// re-scans the stored values on every call. It runs its own RBC engine, so
// fed the same messages, resets and coins as an Agreement it must stay in
// lockstep with it.
type refAgreement struct {
	n, t   int
	prefix string
	input  sim.Bit

	out     sim.Bit
	decided bool
	round   int
	step    int
	x       sim.Bit
	mark    bool

	engine *rbc.Engine
	acc    map[int]map[int]map[sim.ProcID]Val

	stragglers int // accepted values dropped because their round was over
}

func newRefAgreement(t *testing.T, self sim.ProcID, members []sim.ProcID, tt int, prefix string, input sim.Bit) *refAgreement {
	t.Helper()
	engine, err := rbc.NewScopedEngine(self, members, tt)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refAgreement{n: len(members), t: tt, prefix: prefix, input: input, engine: engine}
	ref.rewind(input)
	return ref
}

func (a *refAgreement) rewind(x sim.Bit) {
	a.round, a.step, a.x, a.mark, a.decided = 1, 1, x, false, false
	a.acc = make(map[int]map[int]map[sim.ProcID]Val)
	a.engine.Reset()
	a.broadcastStep()
}

func (a *refAgreement) recycle(input sim.Bit) {
	a.input, a.out = input, 0
	a.rewind(input)
}

func (a *refAgreement) broadcastStep() {
	a.engine.BroadcastAt(a.prefix, a.round, a.step, valAny(a.x, a.mark && a.step == 3))
}

func (a *refAgreement) handle(m sim.Message, r sim.RandSource) {
	for _, acc := range a.engine.Handle(m) {
		round, step := acc.T.Round, acc.T.Step
		if acc.T.Label != a.prefix || round < 1 || step < 1 || step > 3 {
			continue
		}
		val, ok := acc.Value.(Val)
		if !ok {
			continue
		}
		if round < a.round {
			a.stragglers++
			continue
		}
		a.accept(round, step, acc.T.Sender, val)
	}
	a.progress(r)
}

func (a *refAgreement) accept(round, step int, sender sim.ProcID, val Val) {
	if a.acc[round] == nil {
		a.acc[round] = make(map[int]map[sim.ProcID]Val)
	}
	if a.acc[round][step] == nil {
		a.acc[round][step] = make(map[sim.ProcID]Val)
	}
	if _, dup := a.acc[round][step][sender]; !dup {
		a.acc[round][step][sender] = val
	}
}

func (a *refAgreement) countVals(round, step int) [2]int {
	var count [2]int
	for _, v := range a.acc[round][step] {
		count[v.V]++
	}
	return count
}

func (a *refAgreement) validCounts(round, step int) (valid int, count, marked [2]int) {
	all := a.acc[round][step]
	if step == 1 {
		for _, v := range all {
			count[v.V]++
		}
		return len(all), count, marked
	}
	prev := a.countVals(round, step-1)
	for _, v := range all {
		switch {
		case step == 2:
			if 2*prev[v.V] > a.n-a.t {
				valid++
				count[v.V]++
			}
		case !v.D:
			valid++
			count[v.V]++
		default:
			if 2*prev[v.V] > a.n {
				valid++
				count[v.V]++
				marked[v.V]++
			}
		}
	}
	return valid, count, marked
}

func (a *refAgreement) progress(r sim.RandSource) {
	for {
		valid, count, marked := a.validCounts(a.round, a.step)
		if valid < a.n-a.t {
			return
		}
		switch a.step {
		case 1:
			a.x = 0
			if count[1] > count[0] {
				a.x = 1
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
			delete(a.acc, a.round)
			round := a.round
			a.engine.Forget(func(tag rbc.Tag) bool {
				return tag.Label == a.prefix && tag.Round <= round-1
			})
			a.round++
			a.step = 1
		}
		a.broadcastStep()
	}
}

func (a *refAgreement) decide(v sim.Bit) {
	if !a.decided {
		a.out, a.decided = v, true
	}
}

// recount rebuilds a round's twelve counters and three sender sets from the
// reference's stored values.
func (a *refAgreement) recount(round, seenWords int) (cnt [3][2][2]int32, seen []uint64) {
	seen = make([]uint64, 3*seenWords)
	for step, bySender := range a.acc[round] {
		for sender, v := range bySender {
			d := 0
			if v.D {
				d = 1
			}
			cnt[step-1][v.V][d]++
			seen[(step-1)*seenWords+int(sender)>>6] |= 1 << (uint(sender) & 63)
		}
	}
	return cnt, seen
}

// tallyPair is one member under test: the Agreement and its reference, each
// with its own copy of the member's coin stream.
type tallyPair struct {
	ag       *Agreement
	ref      *refAgreement
	agCoins  *rng.Source
	refCoins *rng.Source
}

// check compares the pair after an operation: protocol state, every live
// round's counters and sender sets against a recount of the reference's
// accepted values, the validation verdict of the current step, and the
// messages queued since the last check (returned for the network).
func (p *tallyPair) check(t *testing.T, what string) []sim.Message {
	t.Helper()
	ag, ref := p.ag, p.ref
	type state struct {
		round, step int
		x, out      sim.Bit
		mark, done  bool
	}
	got := state{ag.round, ag.step, ag.x, ag.out, ag.mark, ag.decided}
	want := state{ref.round, ref.step, ref.x, ref.out, ref.mark, ref.decided}
	if got != want {
		t.Fatalf("%s: state %+v, reference %+v", what, got, want)
	}
	rounds := map[int]bool{}
	for round := range ref.acc {
		rounds[round] = true
	}
	for i := range ag.rounds {
		if rounds[ag.rounds[i].round] = true; ag.rounds[i].round < ag.round {
			t.Fatalf("%s: tally of finished round %d still live in round %d", what, ag.rounds[i].round, ag.round)
		}
	}
	for round := range rounds {
		cnt, seen := ref.recount(round, ag.seenWords)
		var live roundTally
		if rt := ag.tally(round); rt != nil {
			live = *rt
		} else {
			live.seen = make([]uint64, 3*ag.seenWords)
		}
		if live.cnt != cnt || !slices.Equal(live.seen, seen) {
			t.Fatalf("%s: round %d counters %v senders %x, recount %v senders %x",
				what, round, live.cnt, live.seen, cnt, seen)
		}
	}
	for step := 1; step <= 3; step++ {
		valid, count, marked := ag.validCounts(ag.round, step)
		rValid, rCount, rMarked := ref.validCounts(ref.round, step)
		if valid != rValid || count != rCount || marked != rMarked {
			t.Fatalf("%s: validCounts(round %d, step %d) = %d %v %v, scan %d %v %v",
				what, ag.round, step, valid, count, marked, rValid, rCount, rMarked)
		}
	}
	for _, rt := range ag.rounds[len(ag.rounds):cap(ag.rounds)] {
		if rt.cnt != ([3][2][2]int32{}) || slices.ContainsFunc(rt.seen, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("%s: a released tally was parked dirty: %+v", what, rt)
		}
	}
	out, refOut := ag.Flush(), ref.engine.Flush()
	if len(out) != len(refOut) {
		t.Fatalf("%s: queued %d messages, reference %d", what, len(out), len(refOut))
	}
	msgs := make([]sim.Message, len(out))
	for i := range out {
		m, r := *out[i].Payload.(*rbc.Msg), *refOut[i].Payload.(*rbc.Msg)
		if out[i].To != refOut[i].To || m != r {
			t.Fatalf("%s: queued message %d = to %d %+v, reference to %d %+v", what, i, out[i].To, m, refOut[i].To, r)
		}
		msgs[i] = sim.Message{From: out[i].From, To: out[i].To, Payload: m}
	}
	return msgs
}

// TestTallyCountersMatchRecount drives a 7-member network, every member an
// Agreement paired with its reference, in random delivery order and, after
// every Handle, Reset and Recycle, requires the counters to equal a recount
// of the reference's accepted set. Members 5 and 6 are Byzantine as senders:
// they relay honestly, but their own broadcasts are replaced by values of the
// test's choosing — unjustified or mis-marked, for every round up front (so
// far ahead of the receivers), the same to everyone or a different one to
// each half, every copy twice. Random order makes stragglers for released
// rounds; a repeated accept for a sender already counted, which RBC itself
// never produces, is injected directly. Each epoch resets one member in the
// middle of a round, and the second epoch runs on recycled Agreements.
func TestTallyCountersMatchRecount(t *testing.T) {
	const n, tt = 7, 2
	members := make([]sim.ProcID, n)
	for i := range members {
		members[i] = sim.ProcID(i)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			net := rng.New(seed)
			pairs := make([]*tallyPair, n)
			var pool []sim.Message
			send := func(msgs []sim.Message) {
				for _, m := range msgs {
					if msg := m.Payload.(rbc.Msg); m.From >= 5 && msg.Kind == rbc.KindInit {
						continue // the script below speaks for members 5 and 6
					}
					pool = append(pool, m)
				}
			}
			for i := range pairs {
				input := sim.Bit(i % 2)
				ag, err := NewAgreement(sim.ProcID(i), members, tt, "ba", input)
				if err != nil {
					t.Fatal(err)
				}
				ag.Start()
				pairs[i] = &tallyPair{
					ag: ag, ref: newRefAgreement(t, sim.ProcID(i), members, tt, "ba", input),
					agCoins: rng.New(seed*100 + uint64(i)), refCoins: rng.New(seed*100 + uint64(i)),
				}
				send(pairs[i].check(t, "start"))
			}
			byzantine := func(from sim.ProcID, round, step int) {
				tag := rbc.Tag{Sender: from, Label: "ba", Round: round, Step: step}
				v, equivocate := Val{V: sim.Bit(net.Bit()), D: net.Bit() == 1}, net.Intn(8) == 0
				for q := 0; q < n; q++ {
					val := v
					if equivocate && q%2 == 1 {
						val.V = 1 - val.V
					}
					m := sim.Message{From: from, To: sim.ProcID(q), Payload: rbc.Msg{T: tag, Kind: rbc.KindInit, Value: val}}
					pool = append(pool, m, m)
				}
			}
			stragglers, repeats, resets, maxRound := 0, 0, 0, 0
			for epoch := 0; epoch < 2; epoch++ {
				for round := 1; round <= 12; round++ {
					for step := 1; step <= 3; step++ {
						byzantine(5, round, step)
						byzantine(6, round, step)
					}
				}
				reset := false
				for steps := 0; len(pool) > 0 && steps < 15000; steps++ {
					i := net.Intn(len(pool))
					m := pool[i]
					pool[i] = pool[len(pool)-1]
					pool = pool[:len(pool)-1]
					p := pairs[m.To]
					p.ag.Handle(m, p.agCoins)
					p.ref.handle(m, p.refCoins)
					send(p.check(t, "handle"))

					switch k := net.Intn(50); {
					case !reset && p.ag.round == 5 && p.ag.step == 2:
						// One reset per epoch, in the middle of a round. Bracha is
						// not reset-tolerant: the member restarts from round 1 and
						// stays behind, and the others go on without it.
						reset = true
						p.ag.Reset()
						p.ref.rewind(p.ref.input)
						send(p.check(t, "reset"))
						resets++
					case k == 0:
						// A second accept for a sender already counted, with a value
						// of the test's choosing: both sides must ignore it.
						round, step, sender := p.ag.round+net.Intn(2), 1+net.Intn(3), sim.ProcID(net.Intn(n))
						if _, seen := p.ref.acc[round][step][sender]; !seen {
							break
						}
						repeats++
						v := Val{V: sim.Bit(net.Bit()), D: net.Bit() == 1}
						p.ag.accept(round, step, sender, v)
						p.ref.accept(round, step, sender, v)
						p.ag.progress(p.agCoins)
						p.ref.progress(p.refCoins)
						send(p.check(t, "direct accept"))
					}
				}
				pool = pool[:0]
				for i, p := range pairs {
					stragglers += p.ref.stragglers
					maxRound = max(maxRound, p.ag.round)
					input := sim.Bit((i + epoch + 1) % 2)
					p.ag.Recycle(input)
					p.ref.recycle(input)
					send(p.check(t, "recycle"))
				}
			}
			t.Logf("%d stragglers, %d repeated accepts, %d resets, reached round %d", stragglers, repeats, resets, maxRound)
			if stragglers == 0 || repeats == 0 || resets != 2 || maxRound < 5 {
				t.Fatal("vacuous run")
			}
		})
	}
}
