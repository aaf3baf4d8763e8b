// Package committee implements a Kapron-Kempe-King-Saia-Sanwalani-style
// committee-election agreement algorithm (SODA 2008), the "fast but weaker"
// counterpoint the paper's introduction contrasts with Ben-Or/Bracha:
//
//	"The algorithm in [16] works by iteratively dividing the processors into
//	small committees that can afford to run the slow algorithm of [10] to
//	hold elections to select random smaller subsets of processors to
//	continue into new committees. A single final committee is reached that,
//	with 1 - o(1) probability, contains a suitably bounded percentage of
//	faulty processors. This final committee runs the algorithm of [10] and
//	informs the other processors of the result."
//
// Our reproduction keeps that structure exactly (scaled to simulator sizes):
//
//  1. The current survivor set is partitioned into groups of about nine.
//  2. Each group runs eight parallel *scoped Bracha agreements*
//     (internal/bracha.Agreement), each tolerating two faulty members, on
//     locally random bits to agree on an election seed; the seed
//     deterministically selects three members to advance.
//  3. Each group member publishes the agreed seed network-wide; outsiders
//     accept a group's seed once a strict majority of the group confirms it.
//  4. When at most nine survivors remain, they run one scoped Bracha
//     agreement on their actual input bits and flood DECIDE messages;
//     non-members adopt the value confirmed by a strict majority of the
//     final committee.
//
// Exactly as the paper notes, this algorithm (a) is fast — a few committee
// levels, each O(1) expected Bracha rounds under fair scheduling — but (b)
// has non-zero probability of non-termination or invalid output when a group
// ends up with too many faulty members, and (c) is destroyed by an adaptive
// adversary who waits for the final committee to be known and corrupts it
// (experiment E10 demonstrates both sides of the separation).
package committee

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"asyncagree/internal/bracha"
	"asyncagree/internal/rbc"
	"asyncagree/internal/rng"
	"asyncagree/internal/sim"
)

// The algorithm's fixed parameters.
const (
	// groupSize is the target group size: groups run internal Bracha with
	// tolerance groupT, so groupSize must exceed 3*groupT.
	groupSize = 9
	// groupT is the per-group Byzantine tolerance.
	groupT = 2
	// seedBits is the number of parallel bit agreements forming a group's
	// election seed; seedID needs it below 64.
	seedBits = 8
	// survivorsPerGroup is how many members each group promotes, below
	// groupSize.
	survivorsPerGroup = 3
	// finalSize is the survivor count at or below which the survivors form
	// the final committee.
	finalSize = 9
)

// numGroups is how many groups s survivors form: s/groupSize, at least one.
func numGroups(s int) int { return max(1, s/groupSize) }

// Validate reports whether n processors can run the algorithm: followed
// level by level, the survivor count must end at a final committee whose
// Bracha agreement is feasible, one of more than 3*groupT members. Below
// that every processor wedges on the final agreement and no run decides.
func Validate(n int) error {
	s := n
	for s > finalSize {
		s = numGroups(s) * survivorsPerGroup
	}
	if s <= 3*groupT {
		return fmt.Errorf("committee: n = %d leaves a final committee of %d, need more than %d", n, s, 3*groupT)
	}
	return nil
}

// electSurvivors appends to dst the survivorsPerGroup members of group that
// the agreed seed selects, in draw order: every processor that knows
// (seed, group) selects the same set. It shuffles a copy of group in dst's
// array, so dst needs no other scratch.
func electSurvivors(dst, group []sim.ProcID, seed uint64) []sim.ProcID {
	// A splitmix64 walk seeded by the agreed seed; Fisher-Yates prefix.
	var src rng.Source
	src.Reseed(seed ^ 0x9e3779b97f4a7c15)
	at := len(dst)
	dst = append(dst, group...)
	pool := dst[at:]
	for i := range survivorsPerGroup {
		j := i + int(src.Uint64()%uint64(len(pool)-i))
		pool[i], pool[j] = pool[j], pool[i]
	}
	return dst[:at+survivorsPerGroup]
}

// Wire payload types (beyond the rbc.Msg traffic of the internal
// agreements).
type (
	// helloMsg bootstraps the model's "randomness only on receipt" rule:
	// level-0 seed contributions are sampled on first receipt.
	helloMsg struct{}
	// survMsg publishes a group's agreed election seed network-wide, boxed
	// in its group run.
	survMsg struct {
		Level, Group int
		Seed         uint64
	}
	// decideMsg floods the final committee's decision.
	decideMsg struct {
		V sim.Bit
	}
)

// String formats a publication as fmt formats the struct, {level group
// seed}, so a trace shows the value, not the box's address.
func (m *survMsg) String() string { return fmt.Sprintf("{%d %d %d}", m.Level, m.Group, m.Seed) }

// tally counts the confirmations of one topic, a group's election seed or
// the final decision: the values heard, in first-heard order, each with the
// sender bitset of the processors that confirmed it.
type tally struct {
	vals   []uint64
	voters []uint64 // one sender bitset per value, in vals' order
}

// add records from's confirmation of v, in an n-processor system whose
// sender bitsets are words long.
func (t *tally) add(words int, v uint64, from sim.ProcID) {
	i := slices.Index(t.vals, v)
	if i < 0 {
		i = len(t.vals)
		t.vals = append(t.vals, v)
		t.voters = appendBits(t.voters, words, nil)
	}
	t.voters[i*words+int(from)/64] |= 1 << (from % 64)
}

// majority returns the first value, in first-heard order, that a strict
// majority of the size processors in the members bitset confirmed. An
// honest processor confirms a topic once, so at most one value can hold
// such a majority, and which the tally finds first cannot change the result.
func (t *tally) majority(members []uint64, size int) (uint64, bool) {
	words := len(members)
	for i, v := range t.vals {
		confirms := 0
		for w, m := range members {
			confirms += bits.OnesCount64(m & t.voters[i*words+w])
		}
		if 2*confirms > size {
			return v, true
		}
	}
	return 0, false
}

// reset empties the tally, keeping its arrays.
func (t *tally) reset() { t.vals, t.voters = t.vals[:0], t.voters[:0] }

// appendBits appends the words-long sender bitset of ids to dst. It
// extends dst through slices.Grow: appending a make allocates the make
// under the race detector even where dst has room.
func appendBits(dst []uint64, words int, ids []sim.ProcID) []uint64 {
	at := len(dst)
	dst = slices.Grow(dst, words)[:at+words]
	clear(dst[at:])
	for _, id := range ids {
		dst[at+int(id)/64] |= 1 << (id % 64)
	}
	return dst
}

// groupRun is the per-level, per-group protocol state at a member.
type groupRun struct {
	level, group int
	members      []sim.ProcID
	bits         []*bracha.Agreement
	published    bool
	// box is the payload the run publishes its seed in; nil until the
	// first publication, and after a Reset, whose step-mode messages may
	// still hold the old one.
	box *survMsg
}

// finalID is the reliable-broadcast instance id of the final committee's
// agreement; seedID gives each seed-bit agreement its own.
const finalID = 0

// seedID returns the instance id of bit's agreement in group at level, in
// an n-processor system: 1 + bit + 64*(group + n*level). A group index is
// below n and a bit below 64 (seedBits <= 62), so no two agreements share
// an id, and none is finalID.
func seedID(n, level, group, bit int) int { return 1 + bit + 64*(group+n*level) }

// agreement returns run's seed-bit agreement of instance id, or nil when id
// is not one of run's.
func (run *groupRun) agreement(n, id int) *bracha.Agreement {
	b := id - seedID(n, run.level, run.group, 0)
	if b < 0 || b >= len(run.bits) {
		return nil
	}
	return run.bits[b]
}

// Proc is one processor running the committee algorithm. It implements
// sim.Process.
type Proc struct {
	id    sim.ProcID
	n     int
	input sim.Bit

	out     sim.Bit
	decided bool

	started bool
	// level is the next level whose groups have not yet all reported.
	// survivors is its survivor list, group g the survivors from groups[g]
	// to groups[g+1], and groupBits the groups' member bitsets, words long
	// each, in group order. The next level's list is elected into elected's
	// array, and the two arrays swap at every level.
	level     int
	survivors []sim.ProcID
	elected   []sim.ProcID
	groups    []int
	groupBits []uint64
	words     int

	run *groupRun // my active group run at the current level, if any
	// runs[level] is the group run this processor last built at that level,
	// in this trial or an earlier one, and finalAg the last final-committee
	// agreement, among finalMembers. Recycle keeps them; a level whose group
	// (or final committee) has the same members rewinds them instead of
	// building new agreements.
	runs         []*groupRun
	finalAg      *bracha.Agreement
	finalMembers []sim.ProcID

	// seeds[level][group] tallies the seed confirmations of that group,
	// buffered from the current level on; decide tallies the decision
	// floods, counted against finalBits, the bitset of finalSet, the final
	// committee: the last level's survivors.
	seeds [][]tally

	final     *bracha.Agreement
	finalSet  []sim.ProcID
	finalBits []uint64
	decide    tally

	outbox []sim.Message
}

var (
	_ sim.Process          = (*Proc)(nil)
	_ sim.Recycler         = (*Proc)(nil)
	_ sim.PayloadReclaimer = (*Proc)(nil)
	_ sim.RetainedBytes    = (*Proc)(nil)
)

// New constructs processor id of an n-processor system; Validate(n) must
// hold.
func New(id sim.ProcID, n int, input sim.Bit) (*Proc, error) {
	if err := Validate(n); err != nil {
		return nil, err
	}
	p := &Proc{id: id, n: n, words: (n + 63) / 64}
	p.Recycle(input)
	return p, nil
}

// NewFactory returns a sim.Config-compatible constructor for an
// n-processor system. It panics unless Validate(n) holds.
func NewFactory(n int) func(sim.ProcID, sim.Bit) sim.Process {
	if err := Validate(n); err != nil {
		panic(err.Error())
	}
	return func(id sim.ProcID, input sim.Bit) sim.Process {
		p, err := New(id, n, input)
		if err != nil {
			panic(err.Error()) // unreachable: n validated above
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

// Level returns the current committee level.
func (p *Proc) Level() int { return p.level }

// FinalCommittee returns the final committee once this processor knows it
// (adaptive adversaries in experiments use this with full information). The
// slice is the processor's own, valid until the next Recycle or Reset.
func (p *Proc) FinalCommittee() []sim.ProcID { return p.finalSet }

// Send implements sim.Process. The returned slice is valid only until the
// next Deliver/Reset, per the sim.Process contract, so its array, grown by
// the agreements' flushes, becomes the next outbox.
func (p *Proc) Send() []sim.Message {
	out := p.outbox
	if p.run != nil {
		for _, ag := range p.run.bits {
			out = append(out, ag.Flush()...)
		}
	}
	if p.final != nil {
		out = append(out, p.final.Flush()...)
	}
	p.outbox = out[:0]
	return out
}

// Deliver implements sim.Process.
func (p *Proc) Deliver(m sim.Message, r sim.RandSource) {
	if !p.started {
		p.started = true
		p.startLevel(r)
	}
	switch payload := m.Payload.(type) {
	case helloMsg:
		// Bootstrap only; nothing further.
	case *survMsg:
		p.onSurv(m.From, *payload, r)
	case decideMsg:
		p.decide.add(p.words, uint64(payload.V), m.From)
		p.evaluateDecide()
	default:
		// Agreement traffic: the tag's instance id names the one agreement
		// it is for. A run's seed can only be complete right after one of
		// its agreements decided.
		msg, ok := m.Payload.(*rbc.Msg)
		if ok && p.run != nil {
			if ag := p.run.agreement(p.n, msg.T.ID); ag != nil {
				_, was := ag.Output()
				ag.Handle(m, r)
				if _, now := ag.Output(); now && !was {
					p.checkSeedAgreed(r)
				}
			}
		}
		if ok && msg.T.ID == finalID && p.final != nil {
			p.final.Handle(m, r)
			p.checkFinalDecided()
		}
	}
}

// group returns the members of group g at the current level.
func (p *Proc) group(g int) []sim.ProcID { return p.survivors[p.groups[g]:p.groups[g+1]] }

// startLevel begins the current level: either starts my group's seed
// agreements or, at the final threshold, the final committee agreement. A
// group run kept from an earlier trial at this level, for the same group,
// is rewound with the same coin draws a new one would take.
func (p *Proc) startLevel(r sim.RandSource) {
	if len(p.survivors) <= finalSize {
		p.startFinal()
		return
	}
	for gIdx := range len(p.groups) - 1 {
		members := p.group(gIdx)
		if !slices.Contains(members, p.id) {
			continue
		}
		if p.level < len(p.runs) {
			if run := p.runs[p.level]; run != nil && run.group == gIdx && slices.Equal(run.members, members) {
				for _, ag := range run.bits {
					ag.Recycle(sim.Bit(r.Bit()))
				}
				run.published = false
				p.run = run
				return
			}
		}
		run := &groupRun{level: p.level, group: gIdx, members: slices.Clone(members)}
		for b := range seedBits {
			id := seedID(p.n, p.level, gIdx, b)
			ag, err := bracha.NewAgreement(p.id, members, groupT, id, sim.Bit(r.Bit()))
			if err != nil {
				// Group below feasibility: cannot participate; the level
				// stalls for this group (counted as an algorithm failure by
				// the experiment harness, matching the non-termination
				// probability of the original).
				return
			}
			ag.Start()
			run.bits = append(run.bits, ag)
		}
		for len(p.runs) <= p.level { // no run at a level this processor sat out
			p.runs = append(p.runs, nil)
		}
		p.runs[p.level] = run
		p.run = run
		return
	}
	// Not a member of any group at this level: wait for seed publications.
}

// checkSeedAgreed publishes my group's seed once all bit agreements decide.
func (p *Proc) checkSeedAgreed(r sim.RandSource) {
	run := p.run
	if run == nil || run.published {
		return
	}
	var seed uint64
	for b, ag := range run.bits {
		v, ok := ag.Output()
		if !ok {
			return
		}
		seed |= uint64(v) << uint(b)
	}
	run.published = true
	if run.box == nil {
		run.box = new(survMsg)
	}
	*run.box = survMsg{Level: run.level, Group: run.group, Seed: seed}
	p.outbox = append(p.outbox, sim.Message{From: p.id, To: sim.All, Payload: run.box})
	p.onSurv(p.id, *run.box, r) // my own confirmation counts immediately
}

// onSurv tallies a seed confirmation, buffering it when it is for a later
// level than the receiver's (membership is checked when that level's
// groups are known), and evaluates the current level. A group index is
// below n, so a larger one can never be counted.
func (p *Proc) onSurv(from sim.ProcID, msg survMsg, r sim.RandSource) {
	if msg.Level < p.level || msg.Group < 0 || msg.Group >= p.n {
		return // stale, or no group's
	}
	for len(p.seeds) <= msg.Level {
		p.seeds = append(p.seeds, nil)
	}
	for len(p.seeds[msg.Level]) <= msg.Group {
		p.seeds[msg.Level] = append(p.seeds[msg.Level], tally{})
	}
	p.seeds[msg.Level][msg.Group].add(p.words, msg.Seed, from)
	if msg.Level == p.level {
		p.evaluateSeeds(r)
	}
}

// groupSeed returns the seed a strict majority of group g's members
// confirmed at the current level.
func (p *Proc) groupSeed(g int) (uint64, bool) {
	if p.level >= len(p.seeds) || g >= len(p.seeds[p.level]) {
		return 0, false
	}
	return p.seeds[p.level][g].majority(p.groupBits[g*p.words:(g+1)*p.words], p.groups[g+1]-p.groups[g])
}

// evaluateSeeds moves to the next level once every group of the current
// level has a seed confirmed by a strict majority of its members.
func (p *Proc) evaluateSeeds(r sim.RandSource) {
	if p.finalSet != nil {
		return // already at the final phase
	}
	groups := len(p.groups) - 1
	for g := range groups {
		if _, ok := p.groupSeed(g); !ok {
			return
		}
	}
	next := p.elected[:0]
	for g := range groups {
		seed, _ := p.groupSeed(g)
		next = electSurvivors(next, p.group(g), seed)
	}
	slices.Sort(next)
	p.survivors, p.elected = next, p.survivors
	p.regroup()
	p.level++
	p.run = nil
	p.startLevel(r)
	// Buffered confirmations for the new level may already complete it.
	p.evaluateSeeds(r)
}

// regroup partitions the survivors into numGroups contiguous groups, the
// first len%numGroups of them one member larger (so no group falls below
// groupSize), and builds their member bitsets.
func (p *Proc) regroup() {
	s := len(p.survivors)
	k := numGroups(s)
	p.groups = append(p.groups[:0], 0)
	p.groupBits = p.groupBits[:0]
	for g := range k {
		size := s / k
		if g < s%k {
			size++
		}
		p.groups = append(p.groups, p.groups[g]+size)
		p.groupBits = appendBits(p.groupBits, p.words, p.group(g))
	}
}

// startFinal begins the final committee phase.
func (p *Proc) startFinal() {
	p.finalSet = p.survivors
	p.finalBits = appendBits(p.finalBits[:0], p.words, p.finalSet)
	p.evaluateDecide() // buffered DECIDE floods may already suffice
	if !slices.Contains(p.finalSet, p.id) {
		return // spectators wait for DECIDE floods
	}
	if p.finalAg != nil && slices.Equal(p.finalMembers, p.finalSet) {
		p.finalAg.Recycle(p.input)
		p.final = p.finalAg
		return
	}
	ag, err := bracha.NewAgreement(p.id, p.finalSet, groupT, finalID, p.input)
	if err != nil {
		return // infeasible final committee: stall (failure mode, measured)
	}
	ag.Start()
	p.final, p.finalAg = ag, ag
	p.finalMembers = append(p.finalMembers[:0], p.finalSet...)
}

// checkFinalDecided floods the decision once the final agreement completes.
func (p *Proc) checkFinalDecided() {
	v, ok := p.final.Output()
	if !ok {
		return
	}
	if !p.decided {
		p.out, p.decided = v, true
	}
	p.outbox = append(p.outbox, sim.Message{From: p.id, To: sim.All, Payload: decideMsg{V: v}})
	p.final = nil // flood once
}

// evaluateDecide adopts a decision value confirmed by a strict majority of
// the known final committee. The decide tally buffers floods that arrive
// before the receiver knows the committee.
func (p *Proc) evaluateDecide() {
	if p.finalSet == nil || p.decided {
		return
	}
	if v, ok := p.decide.majority(p.finalBits, len(p.finalSet)); ok {
		p.out, p.decided = sim.Bit(v), true
	}
}

// Recycle implements sim.Recycler: it rewinds the processor to the state
// New (which builds a processor through it) would produce for the given
// input, refilling the survivor list and rewinding the tallies in place and
// reusing the outbox capacity. The per-level Bracha agreements stay: a
// level whose group matches one of an earlier trial rewinds its agreements
// (startLevel, startFinal) instead of building them.
func (p *Proc) Recycle(input sim.Bit) {
	p.input = input
	p.out, p.decided = 0, false
	p.started = false
	p.level = 0
	p.survivors = p.survivors[:0]
	for i := range p.n {
		p.survivors = append(p.survivors, sim.ProcID(i))
	}
	p.regroup()
	p.run = nil
	for _, level := range p.seeds {
		for g := range level {
			level[g].reset()
		}
	}
	p.final = nil
	p.finalSet = nil
	p.decide.reset()
	// Bootstrap: everyone says hello so that the first receiving step (the
	// only step that may sample randomness) can draw seed contributions.
	p.outbox = append(p.outbox[:0], sim.Message{From: p.id, To: sim.All, Payload: helloMsg{}})
}

// ReclaimPayload implements sim.PayloadReclaimer: a dead reliable-broadcast
// box goes back to the pool of the agreement that sent it, found by the
// tag's instance id, if this processor still keeps it, so its agreements
// box a broadcast only while their pools are cold. Other payloads are
// ignored: a seed publication's box stays with its group run.
func (p *Proc) ReclaimPayload(payload any) {
	msg, ok := payload.(*rbc.Msg)
	if !ok {
		return
	}
	var ag *bracha.Agreement
	switch id := msg.T.ID; {
	case id == finalID:
		ag = p.finalAg
	case id > finalID:
		if level := (id - 1) / (64 * p.n); level < len(p.runs) && p.runs[level] != nil {
			ag = p.runs[level].agreement(p.n, id)
		}
	}
	if ag != nil {
		ag.ReclaimPayload(payload)
	}
}

// RetainedBytes implements sim.RetainedBytes: the processor, its outbox and
// the agreements it keeps for later trials.
func (p *Proc) RetainedBytes() int64 {
	b := int64(unsafe.Sizeof(*p)) + int64(cap(p.outbox))*int64(unsafe.Sizeof(sim.Message{}))
	for _, run := range p.runs {
		if run == nil {
			continue
		}
		for _, ag := range run.bits {
			b += ag.RetainedBytes()
		}
	}
	if p.finalAg != nil {
		b += p.finalAg.RetainedBytes()
	}
	return b
}

// Reset implements sim.Process. The committee algorithm is not reset-
// tolerant (the paper's point: fast algorithms sacrifice exactly this);
// a reset processor restarts from scratch, as Recycle rewinds it, keeping
// only its output, and will generally desynchronize.
func (p *Proc) Reset() {
	out, decided := p.out, p.decided
	for _, run := range p.runs {
		if run != nil {
			run.box = nil
		}
	}
	p.Recycle(p.input)
	p.out, p.decided = out, decided
}

// Snapshot implements sim.Process.
func (p *Proc) Snapshot() string {
	out := "_"
	if p.decided {
		out = string('0' + byte(p.out))
	}
	return fmt.Sprintf("lvl=%d surv=%d final=%v out=%s", p.level, len(p.survivors), p.finalSet != nil, out)
}
