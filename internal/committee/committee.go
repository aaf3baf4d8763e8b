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
//  1. The current survivor set is partitioned into groups of about GroupSize.
//  2. Each group runs SeedBits parallel *scoped Bracha agreements*
//     (internal/bracha.Agreement) on locally random bits to agree on an
//     election seed; the seed deterministically selects SurvivorsPerGroup
//     members to advance.
//  3. Each group member publishes the agreed seed network-wide; outsiders
//     accept a group's seed once a strict majority of the group confirms it.
//  4. When at most FinalSize survivors remain, they run one scoped Bracha
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
	"sort"
	"unsafe"

	"asyncagree/internal/bracha"
	"asyncagree/internal/rbc"
	"asyncagree/internal/rng"
	"asyncagree/internal/sim"
)

// Params configures the committee algorithm.
type Params struct {
	// N is the total processor count.
	N int
	// GroupSize is the target group size g; groups run internal Bracha with
	// tolerance GroupT, so GroupSize must exceed 3*GroupT.
	GroupSize int
	// GroupT is the per-group Byzantine tolerance.
	GroupT int
	// SeedBits is the number of parallel bit agreements forming a group's
	// election seed.
	SeedBits int
	// SurvivorsPerGroup is how many members each group promotes.
	SurvivorsPerGroup int
	// FinalSize is the survivor count at or below which the survivors form
	// the final committee.
	FinalSize int
}

// DefaultParams returns working parameters for n processors: groups of 9
// tolerating 2 Byzantine members, 8-bit seeds, 3 survivors per group, final
// committee of at most 9.
func DefaultParams(n int) Params {
	return Params{
		N:                 n,
		GroupSize:         9,
		GroupT:            2,
		SeedBits:          8,
		SurvivorsPerGroup: 3,
		FinalSize:         9,
	}
}

// Validate checks structural feasibility.
func (p Params) Validate() error {
	switch {
	case p.N <= 0:
		return fmt.Errorf("committee: n = %d", p.N)
	case p.GroupSize <= 3*p.GroupT:
		return fmt.Errorf("committee: group size %d <= 3*groupT %d", p.GroupSize, 3*p.GroupT)
	case p.SeedBits <= 0 || p.SeedBits > 62:
		return fmt.Errorf("committee: seed bits %d out of (0, 62]", p.SeedBits)
	case p.SurvivorsPerGroup <= 0 || p.SurvivorsPerGroup >= p.GroupSize:
		return fmt.Errorf("committee: survivors per group %d out of (0, group size)", p.SurvivorsPerGroup)
	case p.FinalSize <= 3*p.GroupT:
		return fmt.Errorf("committee: final size %d <= 3*groupT %d", p.FinalSize, 3*p.GroupT)
	}
	return nil
}

// Groups partitions a survivor list into contiguous groups of size at least
// GroupSize (the tail is merged into the last group so no group falls below
// the Bracha feasibility bound).
func (p Params) Groups(survivors []sim.ProcID) [][]sim.ProcID {
	n := len(survivors)
	numGroups := n / p.GroupSize
	if numGroups == 0 {
		numGroups = 1
	}
	var groups [][]sim.ProcID
	base := n / numGroups
	extra := n % numGroups
	idx := 0
	for g := 0; g < numGroups; g++ {
		size := base
		if g < extra {
			size++
		}
		groups = append(groups, survivors[idx:idx+size])
		idx += size
	}
	return groups
}

// electSurvivors deterministically selects k members from group using the
// agreed seed — every processor that knows (seed, group) computes the same
// set.
func electSurvivors(group []sim.ProcID, seed uint64, k int) []sim.ProcID {
	if k >= len(group) {
		out := append([]sim.ProcID(nil), group...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	// A splitmix64 walk seeded by the agreed seed; Fisher-Yates prefix.
	var src rng.Source
	src.Reseed(seed ^ 0x9e3779b97f4a7c15)
	pool := append([]sim.ProcID(nil), group...)
	for i := 0; i < k; i++ {
		j := i + int(src.Uint64()%uint64(len(pool)-i))
		pool[i], pool[j] = pool[j], pool[i]
	}
	out := pool[:k]
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Wire payload types (beyond the rbc.Msg traffic of the internal
// agreements).
type (
	// helloMsg bootstraps the model's "randomness only on receipt" rule:
	// level-0 seed contributions are sampled on first receipt.
	helloMsg struct{}
	// survMsg publishes a group's agreed election seed network-wide.
	survMsg struct {
		Level, Group int
		Seed         uint64
	}
	// decideMsg floods the final committee's decision.
	decideMsg struct {
		V sim.Bit
	}
)

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
		t.voters = append(t.voters, make([]uint64, words)...)
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

// appendBits appends the words-long sender bitset of ids to dst.
func appendBits(dst []uint64, words int, ids []sim.ProcID) []uint64 {
	at := len(dst)
	dst = append(dst, make([]uint64, words)...)
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
}

// finalID is the reliable-broadcast instance id of the final committee's
// agreement; seedID gives each seed-bit agreement its own.
const finalID = 0

// seedID returns the instance id of bit's agreement in group at level, in
// an n-processor system: 1 + bit + 64*(group + n*level). A group index is
// below n and a bit below 64 (SeedBits <= 62), so no two agreements share
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
	id     sim.ProcID
	params Params
	input  sim.Bit

	out     sim.Bit
	decided bool

	started bool
	// level is the next level whose groups have not yet all reported;
	// groups are its survivors' groups, groupBits their member bitsets, words
	// long each, in groups' order.
	level     int
	survivors []sim.ProcID
	groups    [][]sim.ProcID
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
	// floods, counted against finalBits, the final committee's bitset.
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

// New constructs a committee processor.
func New(id sim.ProcID, params Params, input sim.Bit) (*Proc, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	p := &Proc{id: id, params: params, words: (params.N + 63) / 64}
	p.Recycle(input)
	return p, nil
}

// NewFactory returns a sim.Config-compatible constructor.
func NewFactory(params Params) func(sim.ProcID, sim.Bit) sim.Process {
	if err := params.Validate(); err != nil {
		panic("committee: " + err.Error())
	}
	return func(id sim.ProcID, input sim.Bit) sim.Process {
		p, err := New(id, params, input)
		if err != nil {
			panic("committee: " + err.Error()) // unreachable: params validated above
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
// (adaptive adversaries in experiments use this with full information).
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
	case survMsg:
		p.onSurv(m.From, payload, r)
	case decideMsg:
		p.decide.add(p.words, uint64(payload.V), m.From)
		p.evaluateDecide()
	default:
		// Agreement traffic: the tag's instance id names the one agreement
		// it is for. A run's seed can only be complete right after one of
		// its agreements decided.
		msg, ok := m.Payload.(*rbc.Msg)
		if ok && p.run != nil {
			if ag := p.run.agreement(p.params.N, msg.T.ID); ag != nil {
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

// startLevel begins the current level: either starts my group's seed
// agreements or, at the final threshold, the final committee agreement. A
// group run kept from an earlier trial at this level, for the same group,
// is rewound with the same coin draws a new one would take.
func (p *Proc) startLevel(r sim.RandSource) {
	if len(p.survivors) <= p.params.FinalSize {
		p.startFinal()
		return
	}
	for gIdx, members := range p.groups {
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
		for b := 0; b < p.params.SeedBits; b++ {
			id := seedID(p.params.N, p.level, gIdx, b)
			ag, err := bracha.NewAgreement(p.id, members, p.params.GroupT, id, sim.Bit(r.Bit()))
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
	msg := survMsg{Level: run.level, Group: run.group, Seed: seed}
	p.outbox = append(p.outbox, sim.Message{From: p.id, To: sim.All, Payload: msg})
	p.onSurv(p.id, msg, r) // my own confirmation counts immediately
}

// onSurv tallies a seed confirmation, buffering it when it is for a later
// level than the receiver's (membership is checked when that level's
// groups are known), and evaluates the current level. A group index is
// below n, so a larger one can never be counted.
func (p *Proc) onSurv(from sim.ProcID, msg survMsg, r sim.RandSource) {
	if msg.Level < p.level || msg.Group < 0 || msg.Group >= p.params.N {
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
	return p.seeds[p.level][g].majority(p.groupBits[g*p.words:(g+1)*p.words], len(p.groups[g]))
}

// evaluateSeeds moves to the next level once every group of the current
// level has a seed confirmed by a strict majority of its members.
func (p *Proc) evaluateSeeds(r sim.RandSource) {
	if p.finalSet != nil {
		return // already at the final phase
	}
	for g := range p.groups {
		if _, ok := p.groupSeed(g); !ok {
			return
		}
	}
	var next []sim.ProcID
	for g, group := range p.groups {
		seed, _ := p.groupSeed(g)
		next = append(next, electSurvivors(group, seed, p.params.SurvivorsPerGroup)...)
	}
	sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	p.survivors = next
	p.regroup()
	p.level++
	p.run = nil
	p.startLevel(r)
	// Buffered confirmations for the new level may already complete it.
	p.evaluateSeeds(r)
}

// regroup partitions the survivors into groups and their member bitsets.
func (p *Proc) regroup() {
	p.groups = p.params.Groups(p.survivors)
	p.groupBits = p.groupBits[:0]
	for _, g := range p.groups {
		p.groupBits = appendBits(p.groupBits, p.words, g)
	}
}

// startFinal begins the final committee phase.
func (p *Proc) startFinal() {
	p.finalSet = append([]sim.ProcID(nil), p.survivors...)
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
	ag, err := bracha.NewAgreement(p.id, p.finalSet, p.params.GroupT, finalID, p.input)
	if err != nil {
		return // infeasible final committee: stall (failure mode, measured)
	}
	ag.Start()
	p.final, p.finalAg, p.finalMembers = ag, ag, p.finalSet
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
// input, rewinding the tallies in place and reusing the survivor list and
// outbox capacity. The per-level Bracha agreements stay: a level whose
// group matches one of an earlier trial rewinds its agreements
// (startLevel, startFinal) instead of building them.
func (p *Proc) Recycle(input sim.Bit) {
	p.input = input
	p.out, p.decided = 0, false
	p.started = false
	p.level = 0
	p.survivors = p.survivors[:0]
	for i := 0; i < p.params.N; i++ {
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
// box a broadcast only while their pools are cold. Other payloads are plain
// values and are ignored.
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
		if level := (id - 1) / (64 * p.params.N); level < len(p.runs) && p.runs[level] != nil {
			ag = p.runs[level].agreement(p.params.N, id)
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
// a reset processor restarts from scratch and will generally desynchronize.
func (p *Proc) Reset() {
	out, decided := p.out, p.decided
	fresh, err := New(p.id, p.params, p.input)
	if err != nil {
		return // parameters were validated at construction; unreachable
	}
	*p = *fresh
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
