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
	"sort"
	"strconv"

	"asyncagree/internal/bracha"
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

// groupRun is the per-level, per-group protocol state at a member.
type groupRun struct {
	level, group int
	members      []sim.ProcID
	bits         []*bracha.Agreement
	published    bool
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
	// level is the next level whose groups have not yet all reported.
	level     int
	survivors []sim.ProcID

	run *groupRun // my active group run at the current level, if any

	// seedVotes[level][group][seed] = set of confirming members;
	// acceptedSeed[level][group] = accepted seed (presence = accepted).
	seedVotes    map[int]map[int]map[uint64]map[sim.ProcID]bool
	acceptedSeed map[int]map[int]uint64

	final       *bracha.Agreement
	finalSet    []sim.ProcID
	decideVotes map[sim.Bit]map[sim.ProcID]bool

	outbox []sim.Message
}

var _ sim.Process = (*Proc)(nil)

// New constructs a committee processor.
func New(id sim.ProcID, params Params, input sim.Bit) (*Proc, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	survivors := make([]sim.ProcID, params.N)
	for i := range survivors {
		survivors[i] = sim.ProcID(i)
	}
	p := &Proc{
		id:           id,
		params:       params,
		input:        input,
		survivors:    survivors,
		seedVotes:    make(map[int]map[int]map[uint64]map[sim.ProcID]bool),
		acceptedSeed: make(map[int]map[int]uint64),
		decideVotes:  make(map[sim.Bit]map[sim.ProcID]bool),
	}
	// Bootstrap: everyone says hello so that the first receiving step (the
	// only step that may sample randomness) can draw seed contributions.
	for q := 0; q < params.N; q++ {
		p.outbox = append(p.outbox, sim.Message{From: id, To: sim.ProcID(q), Payload: helloMsg{}})
	}
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
// next Deliver/Reset, per the sim.Process contract.
func (p *Proc) Send() []sim.Message {
	out := p.outbox
	p.outbox = p.outbox[:0]
	if p.run != nil {
		for _, ag := range p.run.bits {
			out = append(out, ag.Flush()...)
		}
	}
	if p.final != nil {
		out = append(out, p.final.Flush()...)
	}
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
		p.onDecide(m.From, payload)
	default:
		// Agreement traffic: route to whichever instance claims it.
		if p.run != nil {
			for _, ag := range p.run.bits {
				if ag.Handles(m) {
					ag.Handle(m, r)
				}
			}
			p.checkSeedAgreed(r)
		}
		if p.final != nil && p.final.Handles(m) {
			p.final.Handle(m, r)
			p.checkFinalDecided()
		}
	}
}

// startLevel begins the current level: either starts my group's seed
// agreements or, at the final threshold, the final committee agreement.
func (p *Proc) startLevel(r sim.RandSource) {
	if len(p.survivors) <= p.params.FinalSize {
		p.startFinal()
		return
	}
	groups := p.params.Groups(p.survivors)
	for gIdx, members := range groups {
		if !contains(members, p.id) {
			continue
		}
		run := &groupRun{level: p.level, group: gIdx, members: members}
		for b := 0; b < p.params.SeedBits; b++ {
			prefix := "L" + strconv.Itoa(p.level) + "G" + strconv.Itoa(gIdx) + "b" + strconv.Itoa(b)
			ag, err := bracha.NewAgreement(p.id, members, p.params.GroupT, prefix, sim.Bit(r.Bit()))
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
	for q := 0; q < p.params.N; q++ {
		p.outbox = append(p.outbox, sim.Message{
			From: p.id, To: sim.ProcID(q),
			Payload: survMsg{Level: run.level, Group: run.group, Seed: seed},
		})
	}
	// My own confirmation counts immediately.
	p.recordSeedVote(p.id, survMsg{Level: run.level, Group: run.group, Seed: seed}, r)
}

// onSurv records a seed confirmation and accepts the group's seed at strict
// majority.
func (p *Proc) onSurv(from sim.ProcID, msg survMsg, r sim.RandSource) {
	p.recordSeedVote(from, msg, r)
}

// recordSeedVote buffers a seed confirmation unconditionally (the receiver
// may still be at an earlier level) and re-evaluates acceptance for the
// current level. Membership validation happens lazily at evaluation time,
// when this processor knows the groups of that level.
func (p *Proc) recordSeedVote(from sim.ProcID, msg survMsg, r sim.RandSource) {
	if msg.Level < p.level || msg.Group < 0 {
		return // stale
	}
	byGroup := p.seedVotes[msg.Level]
	if byGroup == nil {
		byGroup = make(map[int]map[uint64]map[sim.ProcID]bool)
		p.seedVotes[msg.Level] = byGroup
	}
	bySeed := byGroup[msg.Group]
	if bySeed == nil {
		bySeed = make(map[uint64]map[sim.ProcID]bool)
		byGroup[msg.Group] = bySeed
	}
	voters := bySeed[msg.Seed]
	if voters == nil {
		voters = make(map[sim.ProcID]bool)
		bySeed[msg.Seed] = voters
	}
	voters[from] = true
	p.evaluateSeeds(r)
}

// evaluateSeeds accepts any current-level group seed confirmed by a strict
// majority of that group's members, then advances the level if complete.
func (p *Proc) evaluateSeeds(r sim.RandSource) {
	groups := p.params.Groups(p.survivors)
	accepted := p.acceptedSeed[p.level]
	if accepted == nil {
		accepted = make(map[int]uint64)
		p.acceptedSeed[p.level] = accepted
	}
	for gIdx, group := range groups {
		if _, done := accepted[gIdx]; done {
			continue
		}
		for seed, voters := range p.seedVotes[p.level][gIdx] {
			confirms := 0
			for from := range voters {
				if contains(group, from) {
					confirms++
				}
			}
			if 2*confirms > len(group) {
				accepted[gIdx] = seed
				break
			}
		}
	}
	p.maybeAdvanceLevel(r)
}

// maybeAdvanceLevel moves to the next level once every group of the current
// level has an accepted seed.
func (p *Proc) maybeAdvanceLevel(r sim.RandSource) {
	if p.finalSet != nil {
		return // already at the final phase
	}
	groups := p.params.Groups(p.survivors)
	accepted := p.acceptedSeed[p.level]
	if len(accepted) < len(groups) {
		return
	}
	var next []sim.ProcID
	for gIdx, group := range groups {
		next = append(next, electSurvivors(group, accepted[gIdx], p.params.SurvivorsPerGroup)...)
	}
	sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	p.survivors = next
	p.level++
	p.run = nil
	p.startLevel(r)
	if p.finalSet == nil {
		// Buffered confirmations for the new level may already complete it.
		p.evaluateSeeds(r)
	}
}

// startFinal begins the final committee phase.
func (p *Proc) startFinal() {
	p.finalSet = append([]sim.ProcID(nil), p.survivors...)
	p.evaluateDecide() // buffered DECIDE floods may already suffice
	if !contains(p.finalSet, p.id) {
		return // spectators wait for DECIDE floods
	}
	ag, err := bracha.NewAgreement(p.id, p.finalSet, p.params.GroupT, "final", p.input)
	if err != nil {
		return // infeasible final committee: stall (failure mode, measured)
	}
	ag.Start()
	p.final = ag
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
	for q := 0; q < p.params.N; q++ {
		p.outbox = append(p.outbox, sim.Message{From: p.id, To: sim.ProcID(q), Payload: decideMsg{V: v}})
	}
	p.final = nil // flood once
}

// onDecide buffers a flooded decision vote (the receiver may not yet know
// the final committee) and adopts the value once a strict majority of the
// final committee confirms it.
func (p *Proc) onDecide(from sim.ProcID, msg decideMsg) {
	voters := p.decideVotes[msg.V]
	if voters == nil {
		voters = make(map[sim.ProcID]bool)
		p.decideVotes[msg.V] = voters
	}
	voters[from] = true
	p.evaluateDecide()
}

// evaluateDecide adopts a decision value confirmed by a strict majority of
// the known final committee.
func (p *Proc) evaluateDecide() {
	if p.finalSet == nil || p.decided {
		return
	}
	for v, voters := range p.decideVotes {
		confirms := 0
		for from := range voters {
			if contains(p.finalSet, from) {
				confirms++
			}
		}
		if 2*confirms > len(p.finalSet) {
			p.out, p.decided = v, true
			return
		}
	}
}

// Recycle implements sim.Recycler: it rewinds the processor to the state
// New would produce for the given input, reusing the top-level vote maps,
// survivor list, and outbox capacity. The per-level Bracha agreements are
// constructed lazily during the run either way, so a recycled trial's
// steady-state cost matches a fresh one with warm maps.
func (p *Proc) Recycle(input sim.Bit) {
	p.input = input
	p.out, p.decided = 0, false
	p.started = false
	p.level = 0
	p.survivors = p.survivors[:0]
	for i := 0; i < p.params.N; i++ {
		p.survivors = append(p.survivors, sim.ProcID(i))
	}
	p.run = nil
	clear(p.seedVotes)
	clear(p.acceptedSeed)
	p.final = nil
	p.finalSet = nil
	clear(p.decideVotes)
	p.outbox = p.outbox[:0]
	for q := 0; q < p.params.N; q++ {
		p.outbox = append(p.outbox, sim.Message{From: p.id, To: sim.ProcID(q), Payload: helloMsg{}})
	}
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

func contains(list []sim.ProcID, id sim.ProcID) bool {
	for _, v := range list {
		if v == id {
			return true
		}
	}
	return false
}
