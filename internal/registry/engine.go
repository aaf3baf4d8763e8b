package registry

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"asyncagree/internal/sched"
	"asyncagree/internal/sim"
)

// This file implements the pooled trial engine: the steady-state execution
// path of the sweep matrix and the experiment drivers. A trial is a fresh
// execution of the same (algorithm, adversary, scheduler, n, t) scenario —
// exactly the paper's notion of re-running the same n-processor
// configuration — so instead of constructing a new sim.System, adversary,
// and scheduler per trial, the engine keeps finished instances in a
// per-scenario pool and rewinds them: the system through sim.System.Recycle
// (and each processor's sim.Recycler), the adversary and scheduler state
// through the RecycleTrial method their own types carry (trialRecycler).
// Recycling restores the exact just-constructed state, so pooled trials are
// byte-identical to fresh ones (TestRecycledTrialMatchesFresh holds every
// registered algorithm to it); the payoff is that steady-state trial execution
// allocates (near) nothing.

// trialRecycler is the optional interface of plan state — a window
// adversary or a delivery scheduler — that can rewind itself in place to
// the state its descriptor's New would produce for a trial seeded seed in
// the same cell. Stateless and scratch-only types implement it as a no-op,
// so pooled trials of every built-in build nothing.
type trialRecycler interface {
	RecycleTrial(seed uint64)
}

// rewind rewinds pooled plan state for the next trial when its type knows
// how, and reports whether it did; the caller builds fresh state otherwise.
func rewind(state any, seed uint64) bool {
	r, ok := state.(trialRecycler)
	if ok {
		r.RecycleTrial(seed)
	}
	return ok
}

// engineKey identifies one poolable scenario shape. Everything a pooled
// instance bakes in at construction time must appear here: the three
// registry names, the (n, t) shape, and the optional algorithm knobs
// (thresholds, proposers) encoded canonically in extra.
type engineKey struct {
	alg, adv, sched string
	n, t            int
	extra           string
}

// extraKey canonically encodes the optional Params knobs that change what a
// factory (or an adversary constructor) bakes in at construction time. The
// common case (no knobs) is "" and allocates nothing.
func extraKey(p Params) string {
	if p.CoreThresholds == nil && p.Proposers == nil && p.AdvKnobs == nil {
		return ""
	}
	var b strings.Builder
	if th := p.CoreThresholds; th != nil {
		b.WriteString("th=")
		b.WriteString(strconv.Itoa(th.T1))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(th.T2))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(th.T3))
	}
	if p.Proposers != nil {
		b.WriteString(";props=")
		for i, q := range p.Proposers {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(q)))
		}
	}
	if p.AdvKnobs != nil {
		b.WriteString(";knobs=")
		for i, v := range p.AdvKnobs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(v))
		}
	}
	return b.String()
}

// TrialEngine bundles the pooled per-trial state of one scenario: the
// system, the adversary, the delivery scheduler, and their composition.
// Acquire one with AcquireTrial, run the trial, and Release it; an engine
// serves one trial at a time and must not be shared across goroutines.
type TrialEngine struct {
	key  engineKey
	alg  *Algorithm
	advD *Adversary
	schD *Scheduler

	sys  *sim.System
	adv  sim.WindowAdversary
	sch  sched.Scheduler
	plan sim.WindowAdversary

	// poisoned marks an engine that a panicking (or otherwise corrupting)
	// trial left in an unknown state. A poisoned engine must never re-enter
	// its pool: Release refuses it (counting the attempt in EngineStats), so
	// even a caller that mistakenly releases after recovering a panic cannot
	// re-serve the corrupt instance.
	poisoned bool

	// free is its key's free list in the pool, set on its first Release.
	// While idle it is linked into free and into the pool's
	// least-recently-released list, charged charge bytes.
	free            *idleList
	sameKey, anyKey idleLinks
	charge          int64
}

// EngineStats counts pooled-engine lifecycle events process-wide. The
// counters are monotone; callers audit a workload by diffing snapshots
// taken around it.
type EngineStats struct {
	// Acquired counts AcquireTrial successes (pool hits and fresh builds).
	Acquired int64
	// Built counts the fresh builds among them: the pool's misses.
	Built int64
	// Evicted counts idle engines the pool dropped to stay within its
	// budget.
	Evicted int64
	// Released counts engines returned to their pool.
	Released int64
	// Poisoned counts engines explicitly marked unusable via Poison.
	Poisoned int64
	// BlockedReleases counts Release calls refused because the engine was
	// poisoned — each one is a caller bug the audit made harmless.
	BlockedReleases int64
	// SkippedWindows counts the windows trials skipped as quiescent
	// (sim.System.RunWindowsUntil): counted in every record's windows, never
	// planned or walked. Only engines declare the plans that allow it.
	SkippedWindows int64
}

var engineStats struct {
	acquired, built, evicted, released, poisoned, blockedReleases atomic.Int64
}

// EngineStatsSnapshot returns the current process-wide pooled-engine
// lifecycle counters.
func EngineStatsSnapshot() EngineStats {
	return EngineStats{
		Acquired:        engineStats.acquired.Load(),
		Built:           engineStats.built.Load(),
		Evicted:         engineStats.evicted.Load(),
		Released:        engineStats.released.Load(),
		Poisoned:        engineStats.poisoned.Load(),
		BlockedReleases: engineStats.blockedReleases.Load(),
		SkippedWindows:  sim.SkippedWindows(),
	}
}

// engineBudget caps the estimated bytes of the idle engines the pool keeps,
// as sim.System.ScratchBytes charges them. It holds the default sweep's
// working set at two workers — up to two engines for each of its 154
// scenarios, 54 MB charged and about 110 MB live — more than twice over, so
// a pass that cycles through the grid finds every scenario's engines where
// the last pass left them instead of evicting each just before its turn.
const engineBudget = 128 << 20

// enginePool keeps released engines for the next trial of their scenario:
// per-key LIFO free lists under one mutex, and one least-recently-released
// list over every idle engine that evicts the oldest while the charged bytes
// exceed the budget. Both lists are intrusive (idleLinks in TrialEngine); a
// key's list, once made, stays in the map and its engines keep a pointer to
// it, so a warm acquire hashes the key once, a release not at all, and
// neither allocates. Unlike a sync.Pool, nothing but the budget drops an idle
// engine: a garbage collection between two trials of a scenario keeps it.
type enginePool struct {
	mu      sync.Mutex
	budget  int64
	free    map[engineKey]*idleList
	idle    idleList // every idle engine, by release order
	charged int64    // sum of the idle engines' charge
}

// engines is the process-wide pool AcquireTrial and Release use.
var engines = enginePool{budget: engineBudget, free: map[engineKey]*idleList{}}

// idleLinks are an idle engine's neighbours in one idleList.
type idleLinks struct{ newer, older *TrialEngine }

// idleList is an intrusive doubly linked list of idle engines, newest first;
// links selects which of an engine's two idleLinks it threads.
type idleList struct{ newest, oldest *TrialEngine }

func sameKey(e *TrialEngine) *idleLinks { return &e.sameKey }
func anyKey(e *TrialEngine) *idleLinks  { return &e.anyKey }

func (l *idleList) push(e *TrialEngine, links func(*TrialEngine) *idleLinks) {
	*links(e) = idleLinks{older: l.newest}
	if l.newest != nil {
		links(l.newest).newer = e
	} else {
		l.oldest = e
	}
	l.newest = e
}

func (l *idleList) remove(e *TrialEngine, links func(*TrialEngine) *idleLinks) {
	ln := links(e)
	if ln.newer != nil {
		links(ln.newer).older = ln.older
	} else {
		l.newest = ln.older
	}
	if ln.older != nil {
		links(ln.older).newer = ln.newer
	} else {
		l.oldest = ln.newer
	}
	*ln = idleLinks{}
}

// get pops the most recently released idle engine of key, or returns nil.
func (p *enginePool) get(key engineKey) *TrialEngine {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.free[key]
	if l == nil || l.newest == nil {
		return nil
	}
	e := l.newest
	p.unlink(e)
	return e
}

// put makes e idle, charged charge bytes, then evicts down to the budget.
func (p *enginePool) put(e *TrialEngine, charge int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.free == nil {
		if e.free = p.free[e.key]; e.free == nil {
			e.free = &idleList{}
			p.free[e.key] = e.free
		}
	}
	e.charge = charge
	e.free.push(e, sameKey)
	p.idle.push(e, anyKey)
	p.charged += charge
	p.evict()
}

// evict drops the least recently released idle engines while their charge
// exceeds the budget: the one just released too, last, if it alone does.
// The caller holds mu.
func (p *enginePool) evict() {
	for p.charged > p.budget {
		p.unlink(p.idle.oldest)
		engineStats.evicted.Add(1)
	}
}

// unlink takes the idle engine e out of both lists.
func (p *enginePool) unlink(e *TrialEngine) {
	e.free.remove(e, sameKey)
	p.idle.remove(e, anyKey)
	p.charged -= e.charge
}

// AcquireTrial returns a trial engine for the named scenario, prepared for
// one window-mode trial at p: the scenario's most recently released engine
// rewound to just-constructed state when the pool holds one, a freshly
// constructed one otherwise. The two are indistinguishable by execution (the
// recycled-equals-fresh contract). Call Release when the trial is done.
func AcquireTrial(algName, advName, schedName string, p Params) (*TrialEngine, error) {
	key := engineKey{alg: algName, adv: advName, sched: schedName,
		n: p.N, t: p.T, extra: extraKey(p)}
	if e := engines.get(key); e != nil {
		if err := e.prepare(p); err != nil {
			return nil, err
		}
		engineStats.acquired.Add(1)
		return e, nil
	}
	e, err := newTrialEngine(key, p)
	if err != nil {
		return nil, err
	}
	engineStats.built.Add(1)
	engineStats.acquired.Add(1)
	return e, nil
}

// newTrialEngine constructs everything fresh (the pool-miss path).
func newTrialEngine(key engineKey, p Params) (*TrialEngine, error) {
	alg, err := LookupAlgorithm(key.alg)
	if err != nil {
		return nil, err
	}
	advD, err := LookupAdversary(key.adv)
	if err != nil {
		return nil, err
	}
	if err := advD.ValidateKnobs(p); err != nil {
		return nil, err
	}
	schD, err := LookupScheduler(key.sched)
	if err != nil {
		return nil, err
	}
	sys, err := NewSystem(key.alg, p)
	if err != nil {
		return nil, err
	}
	adv, err := advD.New(alg, p)
	if err != nil {
		return nil, err
	}
	sch, err := schD.New(p)
	if err != nil {
		return nil, err
	}
	e := &TrialEngine{
		key: key, alg: alg, advD: advD, schD: schD,
		sys: sys, adv: adv, sch: sch,
		plan: sched.Compose(adv, sch),
	}
	e.declarePlan()
	return e, nil
}

// declarePlan declares the engine's System never-resetting when neither the
// adversary nor the scheduler imposes Resetting, so a trial that goes
// quiescent ends at once (sim.System.SetNeverResets). The System checks the
// declaration: a plan that resets, crashes or corrupts all the same fails
// its trial. Only engines declare it; a System from NewSystem never does,
// so a fresh run is the skip's reference.
func (e *TrialEngine) declarePlan() {
	e.sys.SetNeverResets((e.advD.Imposes|e.schD.Imposes)&Resetting == 0)
}

// prepare rewinds a pooled engine for a trial at p. The system recycles in
// place; adversary and scheduler state rewinds itself (rewind), and state
// that cannot is built fresh and the plan re-composed.
func (e *TrialEngine) prepare(p Params) error {
	if err := e.alg.Validate(p); err != nil {
		return err
	}
	if err := e.advD.ValidateKnobs(p); err != nil {
		return err
	}
	if err := e.sys.Recycle(p.Seed, p.Inputs); err != nil {
		return err
	}
	// ShardWorkers is a reference switch outside the engine pool key (output
	// is byte-identical at any setting), so a pooled engine may be re-acquired
	// at a different worker count; apply it per acquisition, and undo any
	// SetColumnar(false) the last holder left. The common case (unchanged
	// count) keeps the existing worker pool hot.
	applyShardParams(e.sys, p)
	e.declarePlan()
	advKept, schKept := rewind(e.adv, p.Seed), rewind(e.sch, p.Seed)
	if advKept && schKept {
		return nil
	}
	var err error
	if !advKept {
		if e.adv, err = e.advD.New(e.alg, p); err != nil {
			return err
		}
	}
	if !schKept {
		if e.sch, err = e.schD.New(p); err != nil {
			return err
		}
	}
	e.plan = sched.Compose(e.adv, e.sch)
	return nil
}

// System exposes the engine's simulation for post-run inspection (decision
// state, snapshots). Valid until Release.
func (e *TrialEngine) System() *sim.System { return e.sys }

// Plan returns the composed window adversary (the scheduler spliced over
// the adversary) driving the engine's trials.
func (e *TrialEngine) Plan() sim.WindowAdversary { return e.plan }

// Run executes one window-mode trial to the budget.
func (e *TrialEngine) Run(maxWindows int) (sim.RunResult, error) {
	return e.sys.RunWindows(e.plan, maxWindows)
}

// RunUntil executes one window-mode trial to the budget under a cooperative
// stall watchdog (see sim.System.RunWindowsUntil): expired is polled on
// every window boundary, and a true return stops the trial there with
// stalled = true and the partial result. A nil expired is exactly Run.
func (e *TrialEngine) RunUntil(maxWindows int, expired func(windows int) bool) (sim.RunResult, bool, error) {
	return e.sys.RunWindowsUntil(e.plan, maxWindows, expired)
}

// Release returns the engine to its scenario pool for the next trial. The
// caller must not touch the engine (or its System) afterwards. Releasing
// after a failed (erroring or stalled) run is fine: the next acquisition
// rewinds everything.
//
// Release must never be deferred across a running trial: a panic can unwind
// the system mid-window, leaving internal state (message buffer, payload
// pools, scratch slices) outside anything the Recycle contract anticipates.
// RunContained recovers such a panic and Poisons the engine instead, so
// Release — even if reached — refuses it and the audit counters record the
// event; the garbage collector reclaims it and the next acquisition
// constructs a fresh one.
func (e *TrialEngine) Release() {
	if e.poisoned {
		engineStats.blockedReleases.Add(1)
		return
	}
	engineStats.released.Add(1)
	engines.put(e, e.sys.ScratchBytes())
}

// Poison permanently marks the engine unusable: a subsequent Release is a
// counted no-op, so the instance can never be re-served from its pool. Call
// it after recovering a panic that unwound the engine mid-trial (the
// engine's internal state is outside anything the Recycle contract
// anticipates) — the garbage collector reclaims it and the next acquisition
// builds fresh.
func (e *TrialEngine) Poison() {
	if !e.poisoned {
		e.poisoned = true
		engineStats.poisoned.Add(1)
	}
}

// RunPooledTrial acquires a pooled engine, runs one window-mode trial of
// the named scenario at p, and releases the engine: the steady-state trial
// path of the experiment drivers and benchmarks, which treat a panic as a
// crash. Release is a plain call, not a defer — see Release. Front ends
// that must survive a faulty trial use RunContained.
func RunPooledTrial(algName, advName, schedName string, p Params, maxWindows int) (sim.RunResult, error) {
	e, err := AcquireTrial(algName, advName, schedName, p)
	if err != nil {
		return sim.RunResult{}, err
	}
	res, err := e.Run(maxWindows)
	e.Release()
	return res, err
}
