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
}

// EngineStats counts pooled-engine lifecycle events process-wide. The
// counters are monotone; callers audit a workload by diffing snapshots
// taken around it.
type EngineStats struct {
	// Acquired counts AcquireTrial successes (pool hits and fresh builds).
	Acquired int64
	// Released counts engines returned to their pool.
	Released int64
	// Poisoned counts engines explicitly marked unusable via Poison.
	Poisoned int64
	// BlockedReleases counts Release calls refused because the engine was
	// poisoned — each one is a caller bug the audit made harmless.
	BlockedReleases int64
}

var engineStats struct {
	acquired, released, poisoned, blockedReleases atomic.Int64
}

// EngineStatsSnapshot returns the current process-wide pooled-engine
// lifecycle counters.
func EngineStatsSnapshot() EngineStats {
	return EngineStats{
		Acquired:        engineStats.acquired.Load(),
		Released:        engineStats.released.Load(),
		Poisoned:        engineStats.poisoned.Load(),
		BlockedReleases: engineStats.blockedReleases.Load(),
	}
}

// enginePools maps engineKey -> *sync.Pool of *TrialEngine. sync.Pool keeps
// the retained memory bounded (idle engines are dropped across GC cycles)
// while giving steady-state sweeps and benchmarks full reuse. A plain map
// under RWMutex (rather than sync.Map) keeps the steady-state lookup free
// of key boxing, so acquiring a pooled engine allocates nothing.
var (
	enginePoolMu sync.RWMutex
	enginePools  = map[engineKey]*sync.Pool{}
)

func poolFor(key engineKey) *sync.Pool {
	enginePoolMu.RLock()
	p := enginePools[key]
	enginePoolMu.RUnlock()
	if p != nil {
		return p
	}
	enginePoolMu.Lock()
	defer enginePoolMu.Unlock()
	if p = enginePools[key]; p == nil {
		p = &sync.Pool{}
		enginePools[key] = p
	}
	return p
}

// AcquireTrial returns a trial engine for the named scenario, prepared for
// one window-mode trial at p: a pooled instance rewound to just-constructed
// state when one is available, a freshly constructed one otherwise. The two
// are indistinguishable by execution (the recycled-equals-fresh contract).
// Call Release when the trial is done.
func AcquireTrial(algName, advName, schedName string, p Params) (*TrialEngine, error) {
	key := engineKey{alg: algName, adv: advName, sched: schedName,
		n: p.N, t: p.T, extra: extraKey(p)}
	pool := poolFor(key)
	if e, ok := pool.Get().(*TrialEngine); ok && e != nil {
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
	return &TrialEngine{
		key: key, alg: alg, advD: advD, schD: schD,
		sys: sys, adv: adv, sch: sch,
		plan: sched.Compose(adv, sch),
	}, nil
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
	// ShardWorkers is a performance knob outside the engine pool key (output
	// is byte-identical at any setting), so a pooled engine may be re-acquired
	// at a different worker count; apply it per acquisition. The common case
	// (unchanged count) keeps the existing worker pool hot.
	applyShardParams(e.sys, e.alg, p)
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
	poolFor(e.key).Put(e)
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
