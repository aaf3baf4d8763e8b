// Package registry is the single source of truth for the repository's
// scenario inventory: algorithms, adversaries, delivery schedulers, and
// input patterns.
//
// Every agreement protocol (the paper's Section 3 core algorithm and the
// Ben-Or / Bracha / committee / Paxos baselines) is described once by an
// Algorithm descriptor: parameter validation, a sim.Process factory, the
// vote classifier the split-vote adversary needs, and its pairing table —
// the plan classes it runs under and, for each, whether it must decide.
// Every full-information adversary is described once by an Adversary
// descriptor, and every delivery scheduler (internal/sched) by a Scheduler
// descriptor (schedulers.go): a constructor returning fresh per-trial state
// and the plan classes its windows impose. Pair (pairing.go) is the one
// check that reads the two sides, for the sweep matrix, the search,
// cmd/agree and the experiments alike. The asyncagree facade,
// internal/experiments, cmd/agree and cmd/sweep are all wired on top of this
// package, so adding an algorithm, adversary, or scheduler is one registry
// entry instead of parallel switch statements, and no test file.
//
// The sweep engine (matrix.go) expands algorithm × adversary × scheduler ×
// size × input × seed grids into independent seeded trials and streams them
// through the record pipeline (pipeline.go, over internal/parallel.Stream)
// with serial-identical records and aggregates; every trial — the sweep's,
// the search's, the daemon's — executes through RunContained (contained.go).
package registry

import (
	"fmt"
	"io"
	"sync"

	"asyncagree/internal/adversary"
	"asyncagree/internal/core"
	"asyncagree/internal/sim"
)

// Params carries the per-trial construction parameters shared by every
// algorithm and adversary in the registry. Algorithm-specific knobs
// (CoreThresholds, Proposers) are optional and ignored by the algorithms
// they do not concern.
type Params struct {
	// N is the processor count, T the fault budget (resets per acceptable
	// window for the strongly adaptive adversary, crashes/silences
	// otherwise).
	N, T int
	// Inputs are the n input bits.
	Inputs []sim.Bit
	// Seed makes the execution (and any randomized adversary) reproducible.
	Seed uint64
	// CoreThresholds optionally overrides the Theorem 4 defaults for the
	// core algorithm.
	CoreThresholds *core.Thresholds
	// Proposers optionally selects the Paxos proposers (default {0}).
	Proposers []sim.ProcID
	// ShardWorkers is how many goroutines walk each window's processor
	// ranges (sim.SetShardWorkers); <= 1 walks them inline on the caller.
	// It is the reference and measurement switch that tests, the scaling
	// experiment and the benchmark use, not a user option: no command sets
	// it. Output is byte-identical at every setting, so it is excluded from
	// engine pool keys.
	ShardWorkers int
	// AdvKnobs supplies values for the adversary's declared tuning knobs
	// (Adversary.Knobs), positionally. A nil slice leaves every knob at the
	// exact historical construction the descriptor registers — the behavior
	// every pre-knob checkpoint and experiment was recorded against — so
	// only callers that explore the adversary space (internal/search) set
	// it. Values are part of the trial's identity: the engine pool keys on
	// them (extraKey) and ValidateKnobs range-checks them on acquisition.
	AdvKnobs []int
}

// Algorithm is a self-describing agreement protocol entry.
type Algorithm struct {
	// Name is the stable registry key (e.g. "core", "benor").
	Name string
	// Description is a one-line human summary for CLI listings.
	Description string
	// Runs is the algorithm's pairing table: each fault class (Lossy,
	// Starving, Resetting) it is paired under, mapped to Decides or
	// MayStall. A class it does not list is one the sweep never pairs it
	// with; an empty table means full delivery only (committee: one dropped
	// echo wedges a group's internal Bracha instance). See Pair.
	Runs map[Class]Promise
	// SafetyCertain reports whether agreement+validity hold with
	// probability 1 (false only for the committee algorithm, whose error
	// probability is non-zero by design).
	SafetyCertain bool
	// Validate checks p without building anything.
	Validate func(p Params) error
	// Factory returns the per-processor sim.Process constructor. It may
	// assume Validate(p) passed (NewSystem guarantees the order).
	Factory func(p Params) (func(sim.ProcID, sim.Bit) sim.Process, error)
	// ClassifyVote extracts the balanced bit from a message for the
	// split-vote adversary; nil means the stalling strategy is not defined
	// for this algorithm.
	ClassifyVote func(sim.Message) adversary.VoteInfo
	// SplitVoteCap is the maximum same-value vote count any receiver may
	// see under the split-vote adversary (core: T3-1; Ben-Or: floor(n/2)).
	// Non-nil exactly when ClassifyVote is.
	SplitVoteCap func(p Params) (int, error)
}

// Knob declares one tunable integer parameter of an adversary: a named,
// bounded axis of the adversary-optimization search space. The declared
// Default reproduces the registered (un-knobbed) construction at every
// sweep-grid size, so the default knob vector is always a legal — and
// baseline — search candidate.
type Knob struct {
	// Name is the stable knob identifier (e.g. "capdelta").
	Name string
	// Description is a one-line human summary for CLI listings.
	Description string
	// Min and Max bound the knob's legal values, inclusive.
	Min, Max int
	// Default is the value reproducing the registered construction.
	Default int
}

// Adversary is a self-describing window-adversary entry.
type Adversary struct {
	// Name is the stable registry key (e.g. "full", "splitvote").
	Name string
	// Description is a one-line human summary for CLI listings.
	Description string
	// Knobs declares the adversary's tunable integer parameters in the
	// positional order Params.AdvKnobs supplies values for. Empty means the
	// adversary has no tunable surface (the search space degenerates to its
	// single registered construction).
	Knobs []Knob
	// Imposes is the set of plan classes the adversary's windows impose
	// (see Pair). PlansRows marks an adversary whose strategy lives in its
	// per-receiver sender rows (fixed silence, split-vote, the chaos
	// subsets): a scheduler that replaces those rows would nullify it.
	Imposes Class
	// New returns FRESH adversary state for one trial. Implementations
	// must never return a shared instance: several adversaries carry
	// mutable per-execution state (rotation cursors, rng streams, give-up
	// counters) and trials run concurrently.
	//
	// The pooled trial engine keeps an instance across the trials of one
	// cell — same algorithm, (n, t) and knob vector, all of which the pool
	// keys on — when its type has a RecycleTrial(seed uint64) method that
	// rewinds it, allocations kept, to the state New would produce for that
	// seed (see trialRecycler); an instance without the method is rebuilt
	// with New every trial, so the method is a pure optimization and never
	// a correctness requirement.
	New func(alg *Algorithm, p Params) (sim.WindowAdversary, error)
}

// KnobDefaults returns the declared knobs' default values (nil when the
// adversary declares none) — the explicit vector equivalent to a nil
// Params.AdvKnobs.
func (a *Adversary) KnobDefaults() []int {
	if len(a.Knobs) == 0 {
		return nil
	}
	defs := make([]int, len(a.Knobs))
	for i, k := range a.Knobs {
		defs[i] = k.Default
	}
	return defs
}

// ValidateKnobs checks p.AdvKnobs against the declared knob specs: nil is
// always valid (every knob at its default); otherwise the vector must have
// one in-range value per declared knob.
func (a *Adversary) ValidateKnobs(p Params) error {
	if p.AdvKnobs == nil {
		return nil
	}
	if len(p.AdvKnobs) != len(a.Knobs) {
		return fmt.Errorf("registry: adversary %q takes %d knob(s), got %d values",
			a.Name, len(a.Knobs), len(p.AdvKnobs))
	}
	for i, v := range p.AdvKnobs {
		if k := a.Knobs[i]; v < k.Min || v > k.Max {
			return fmt.Errorf("registry: adversary %q knob %q = %d outside [%d, %d]",
				a.Name, k.Name, v, k.Min, k.Max)
		}
	}
	return nil
}

// table is the registration list of one kind of descriptor — algorithms,
// adversaries or schedulers: entries in registration order, their names,
// and a by-name index. kind names the table in error texts.
type table[T any] struct {
	kind    string
	mu      sync.RWMutex
	entries []*T
	names   []string
	byName  map[string]*T
}

func newTable[T any](kind string) *table[T] {
	return &table[T]{kind: kind, byName: map[string]*T{}}
}

var (
	algorithms  = newTable[Algorithm]("algorithm")
	adversaries = newTable[Adversary]("adversary")
	schedulers  = newTable[Scheduler]("scheduler")
)

// incomplete is the error for a descriptor registered without its name or
// a mandatory hook.
func (t *table[T]) incomplete(name string) error {
	return fmt.Errorf("registry: %s descriptor %q incomplete", t.kind, name)
}

// add appends d under name, which must be new.
func (t *table[T]) add(name string, d T) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.byName[name]; dup {
		return fmt.Errorf("registry: duplicate %s %q", t.kind, name)
	}
	entry := &d
	t.entries = append(t.entries, entry)
	t.names = append(t.names, name)
	t.byName[name] = entry
	return nil
}

// must panics on a failed registration; it is only reached from init with
// built-in descriptors, so a failure is a programming error.
func (t *table[T]) must(name string, err error) {
	if err != nil {
		panic(fmt.Sprintf("registry: registering built-in %s %q: %v", t.kind, name, err))
	}
}

// all returns the descriptors in registration order. The slice is a copy;
// the descriptors are shared and must not be mutated.
func (t *table[T]) all() []*T {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*T(nil), t.entries...)
}

// allNames returns the registered names in registration order.
func (t *table[T]) allNames() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]string(nil), t.names...)
}

// lookup resolves a name.
func (t *table[T]) lookup(name string) (*T, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown %s %q", t.kind, name)
	}
	return d, nil
}

// RegisterAlgorithm adds an algorithm descriptor. Names must be unique;
// Validate and Factory are mandatory; SplitVoteCap and ClassifyVote must be
// set together; Runs may list fault classes only, one per entry.
func RegisterAlgorithm(a Algorithm) error {
	if a.Name == "" || a.Validate == nil || a.Factory == nil {
		return algorithms.incomplete(a.Name)
	}
	if (a.ClassifyVote == nil) != (a.SplitVoteCap == nil) {
		return fmt.Errorf("registry: algorithm %q must set ClassifyVote and SplitVoteCap together", a.Name)
	}
	for c := range a.Runs {
		if c != Lossy && c != Starving && c != Resetting {
			return fmt.Errorf("registry: algorithm %q lists class %#x in Runs, not one fault class", a.Name, uint8(c))
		}
	}
	return algorithms.add(a.Name, a)
}

// RegisterAdversary adds an adversary descriptor. Names must be unique;
// New is mandatory.
func RegisterAdversary(a Adversary) error {
	if a.Name == "" || a.New == nil {
		return adversaries.incomplete(a.Name)
	}
	return adversaries.add(a.Name, a)
}

func mustRegisterAlgorithm(a Algorithm) { algorithms.must(a.Name, RegisterAlgorithm(a)) }
func mustRegisterAdversary(a Adversary) { adversaries.must(a.Name, RegisterAdversary(a)) }

// Algorithms returns the registered algorithm descriptors in registration
// order. The returned slice is a copy; the descriptors are shared and must
// not be mutated.
func Algorithms() []*Algorithm { return algorithms.all() }

// Adversaries returns the registered adversary descriptors in registration
// order.
func Adversaries() []*Adversary { return adversaries.all() }

// AlgorithmNames returns the registered algorithm names in registration
// order.
func AlgorithmNames() []string { return algorithms.allNames() }

// AdversaryNames returns the registered adversary names in registration
// order.
func AdversaryNames() []string { return adversaries.allNames() }

// LookupAlgorithm resolves a name.
func LookupAlgorithm(name string) (*Algorithm, error) { return algorithms.lookup(name) }

// LookupAdversary resolves a name.
func LookupAdversary(name string) (*Adversary, error) { return adversaries.lookup(name) }

// NewSystem validates p against the named algorithm and constructs a
// simulation.
func NewSystem(alg string, p Params) (*sim.System, error) {
	a, err := LookupAlgorithm(alg)
	if err != nil {
		return nil, err
	}
	if err := a.Validate(p); err != nil {
		return nil, err
	}
	factory, err := a.Factory(p)
	if err != nil {
		return nil, err
	}
	sys, err := sim.New(sim.Config{
		N: p.N, T: p.T, Seed: p.Seed, Inputs: p.Inputs,
		NewProcess: factory,
	})
	if err != nil {
		return nil, err
	}
	applyShardParams(sys, p)
	return sys, nil
}

// applyShardParams sets the window core's worker count on sys and turns the
// columnar path back on, so a caller that switched an engine to messages
// (sim.System.SetColumnar, a reference switch) cannot pass that on to the
// next trial; whether the columnar path then runs is the process types'
// call. Safe to call on every pooled-engine acquisition: sim.System keeps
// its worker pool when the count is unchanged.
func applyShardParams(sys *sim.System, p Params) {
	sys.SetShardWorkers(p.ShardWorkers)
	sys.SetColumnar(true)
}

// NewAdversary constructs fresh per-trial adversary state for the named
// adversary tuned to the named algorithm. Construction fails only when the
// pairing is impossible to build (e.g. split-vote against an algorithm with
// no vote classifier); use Pair for the softer "do the paper's claims
// cover this pairing" check the sweep matrix filters on.
func NewAdversary(adv, alg string, p Params) (sim.WindowAdversary, error) {
	ad, err := LookupAdversary(adv)
	if err != nil {
		return nil, err
	}
	a, err := LookupAlgorithm(alg)
	if err != nil {
		return nil, err
	}
	if err := ad.ValidateKnobs(p); err != nil {
		return nil, err
	}
	return ad.New(a, p)
}

// WriteInventory writes the human-readable registry listing (algorithms,
// adversaries, delivery schedulers, input patterns with one-line
// descriptions) shared by the CLIs' -list flags.
func WriteInventory(w io.Writer) {
	fmt.Fprintln(w, "algorithms:")
	for _, a := range Algorithms() {
		fmt.Fprintf(w, "  %-10s %s\n", a.Name, a.Description)
	}
	fmt.Fprintln(w, "adversaries:")
	for _, a := range Adversaries() {
		fmt.Fprintf(w, "  %-10s %s\n", a.Name, a.Description)
		for _, k := range a.Knobs {
			fmt.Fprintf(w, "  %-10s   knob %s: %s [%d..%d, default %d]\n",
				"", k.Name, k.Description, k.Min, k.Max, k.Default)
		}
	}
	fmt.Fprintln(w, "schedulers:")
	for _, s := range Schedulers() {
		fmt.Fprintf(w, "  %-10s %s\n", s.Name, s.Description)
	}
	fmt.Fprintln(w, "input patterns:")
	for _, p := range InputPatterns() {
		fmt.Fprintf(w, "  %-10s %s\n", p.Name, p.Description)
	}
}
