// Package asyncagree is a Go reproduction of Lewko & Lewko, "On the
// Complexity of Asynchronous Agreement Against Powerful Adversaries"
// (PODC 2013): a deterministic asynchronous message-passing simulator with
// full-information adversaries (including the paper's strongly adaptive
// resetting adversary), the paper's reset-tolerant threshold agreement
// algorithm, the Ben-Or / Bracha / committee / Paxos baselines, and the
// Talagrand-inequality lower-bound machinery of Section 4.
//
// This package is the stable facade over the internal packages. The
// algorithm, adversary, and delivery-scheduler inventory lives in
// internal/registry — a single set of self-describing descriptors shared by
// this facade, the experiment drivers, and the CLIs — so New, NewAdversary,
// and NewScheduler accept any registered name. Typical use:
//
//	cfg := asyncagree.Config{
//		Algorithm: asyncagree.AlgorithmCore,
//		N:         24,
//		T:         3,
//		Inputs:    asyncagree.SplitInputs(24),
//		Seed:      1,
//	}
//	sys, err := asyncagree.New(cfg)
//	...
//	adv, err := asyncagree.NewAdversary("splitvote", cfg)
//	res, err := sys.RunWindows(adv, 100000)
//	fmt.Println(res.Windows, res.Agreement, res.Validity)
//
// See DESIGN.md for the system inventory (§2 for the allocation-free
// window pipeline, §3 for the parallel sweep engine, §3a for the pluggable
// delivery schedulers) and EXPERIMENTS.md
// for the reproduction results; `go run ./cmd/experiments` regenerates
// them and `go run ./cmd/sweep` runs the full algorithm × adversary scenario
// matrix. Timing claims are made by `bash benchmark/run.sh` (BENCHMARK.json);
// allocs_test.go holds the allocation ceilings of the benchmarks in
// bench_test.go.
package asyncagree

import (
	"asyncagree/internal/adversary"
	"asyncagree/internal/core"
	"asyncagree/internal/paxos"
	"asyncagree/internal/registry"
	"asyncagree/internal/sched"
	"asyncagree/internal/sim"
)

// Core simulator types, re-exported.
type (
	// Bit is a binary protocol value.
	Bit = sim.Bit
	// ProcID identifies a processor (0..n-1).
	ProcID = sim.ProcID
	// System is a configured simulation (see sim.System).
	System = sim.System
	// RunResult summarizes an execution.
	RunResult = sim.RunResult
	// Message is a point-to-point protocol message.
	Message = sim.Message
	// Window describes one acceptable window (Definition 1 of the paper):
	// the sender rows each receiver admits (nil: everyone) and the resets.
	Window = sim.Window
	// WindowAdversary plans acceptable windows with full information.
	WindowAdversary = sim.WindowAdversary
	// StepAdversary drives raw fine-grained steps (Section 5 crash model).
	StepAdversary = sim.StepAdversary
	// Scheduler chooses which >= n-t senders each receiver admits per
	// acceptable window (the delivery-discipline axis; see NewScheduler
	// and Schedule).
	Scheduler = sched.Scheduler
	// Thresholds are the core algorithm's T1 >= T2 >= T3.
	Thresholds = core.Thresholds
	// Event is a simulator trace event (install a handler via
	// System.OnEvent).
	Event = sim.Event
	// EventKind discriminates trace events.
	EventKind = sim.EventKind
	// Matrix describes a scenario sweep over the registered algorithm ×
	// adversary × size × input × seed cross-product (see Sweep).
	Matrix = registry.Matrix
	// SweepSize is one (n, t) system shape of a Matrix.
	SweepSize = registry.Size
	// SweepResult is the aggregated output of a sweep.
	SweepResult = registry.Sweep
)

// All is the broadcast address: a WindowAdversary's batch entry To All is
// one broadcast record, standing for a copy to every processor alive at
// the send (see sim.All).
const All = sim.All

// Trace event kinds, re-exported.
const (
	EvWindow  = sim.EvWindow
	EvSend    = sim.EvSend
	EvDeliver = sim.EvDeliver
	EvReset   = sim.EvReset
	EvCrash   = sim.EvCrash
	EvDecide  = sim.EvDecide
)

// Algorithm selects one of the implemented agreement protocols.
type Algorithm string

// Implemented algorithms (the registry keys; see Algorithms for the full
// live list).
const (
	// AlgorithmCore is the paper's Section 3 reset-tolerant threshold
	// protocol (measure-one correct and terminating against the strongly
	// adaptive adversary for t < n/6; Theorem 4).
	AlgorithmCore Algorithm = "core"
	// AlgorithmBenOr is Ben-Or 1983 (crash model, t < n/2).
	AlgorithmBenOr Algorithm = "benor"
	// AlgorithmBracha is Bracha 1984 over reliable broadcast (Byzantine,
	// t < n/3).
	AlgorithmBracha Algorithm = "bracha"
	// AlgorithmCommittee is the Kapron et al.-style committee election
	// (fast, non-adaptive-only, non-zero error probability).
	AlgorithmCommittee Algorithm = "committee"
	// AlgorithmPaxos is single-decree Paxos (deterministic; terminates only
	// under benign scheduling).
	AlgorithmPaxos Algorithm = "paxos"
)

// Algorithms lists the registered algorithms.
func Algorithms() []Algorithm {
	names := registry.AlgorithmNames()
	algs := make([]Algorithm, len(names))
	for i, name := range names {
		algs[i] = Algorithm(name)
	}
	return algs
}

// Adversaries lists the registered window-adversary names accepted by
// NewAdversary.
func Adversaries() []string { return registry.AdversaryNames() }

// Schedulers lists the registered delivery-scheduler names accepted by
// NewScheduler.
func Schedulers() []string { return registry.SchedulerNames() }

// InputPatterns lists the registered input pattern names accepted by
// PatternInputs.
func InputPatterns() []string { return registry.InputPatternNames() }

// Config describes a simulation to construct.
type Config struct {
	// Algorithm selects the protocol every processor runs.
	Algorithm Algorithm
	// N is the processor count, T the fault budget (its meaning is
	// algorithm- and adversary-dependent: resets per acceptable window for
	// the strongly adaptive adversary, total crashes/corruptions
	// otherwise).
	N, T int
	// Inputs are the n input bits (see UnanimousInputs, SplitInputs).
	Inputs []Bit
	// Seed makes the execution reproducible.
	Seed uint64
	// CoreThresholds optionally overrides the Theorem 4 defaults for
	// AlgorithmCore.
	CoreThresholds *Thresholds
	// Proposers optionally selects the Paxos proposers (default {0}).
	Proposers []ProcID
}

// params converts the facade config to registry construction parameters.
func (cfg Config) params() registry.Params {
	return registry.Params{
		N: cfg.N, T: cfg.T, Inputs: cfg.Inputs, Seed: cfg.Seed,
		CoreThresholds: cfg.CoreThresholds, Proposers: cfg.Proposers,
	}
}

// New constructs a simulation from the registered algorithm descriptor.
func New(cfg Config) (*System, error) {
	return registry.NewSystem(string(cfg.Algorithm), cfg.params())
}

// DefaultThresholds returns Theorem 4's default thresholds T1 = T2 = n-2t,
// T3 = n-3t, which exist exactly when t < n/6.
func DefaultThresholds(n, t int) (Thresholds, error) {
	return core.DefaultThresholds(n, t)
}

// UnanimousInputs returns n copies of v.
func UnanimousInputs(n int, v Bit) []Bit { return registry.UnanimousInputs(n, v) }

// SplitInputs returns the alternating 0/1 input assignment — the adversarial
// input setting of the paper's slowness arguments.
func SplitInputs(n int) []Bit { return registry.SplitInputs(n) }

// PatternInputs generates the n input bits of a registered named pattern
// ("split", "zeros", "ones", "blocks"); seed only matters to
// seed-dependent patterns.
func PatternInputs(pattern string, n int, seed uint64) ([]Bit, error) {
	return registry.Inputs(pattern, n, seed)
}

// NewAdversary constructs fresh per-trial state for any registered window
// adversary, tuned to cfg's algorithm (the split-vote adversary, for
// example, needs the algorithm's vote classifier and threshold cap).
func NewAdversary(name string, cfg Config) (WindowAdversary, error) {
	return registry.NewAdversary(name, string(cfg.Algorithm), cfg.params())
}

// NewScheduler constructs fresh per-trial state for any registered delivery
// scheduler ("adversary", "full", "ascmin", "seeded", "laggard",
// "alternate"); seed-dependent schedulers derive their stream from cfg.Seed.
func NewScheduler(name string, cfg Config) (Scheduler, error) {
	return registry.NewScheduler(name, cfg.params())
}

// Schedule wraps adv so that the delivery discipline comes from sch while
// the adversary keeps planning resets and crashes. The "adversary"
// scheduler (or a nil sch) returns adv unchanged.
func Schedule(adv WindowAdversary, sch Scheduler) WindowAdversary {
	return sched.Compose(adv, sch)
}

// FullDelivery returns the benign adversary: deliver everything, reset
// nobody.
func FullDelivery() WindowAdversary { return adversary.FullDelivery{} }

// RandomAdversary returns a chaos adversary delivering random (n-t)-subsets
// and resetting up to maxResets processors with probability resetProb per
// window.
func RandomAdversary(seed uint64, resetProb float64, maxResets int) WindowAdversary {
	return adversary.NewRandomWindows(seed, resetProb, maxResets)
}

// ResetStorm returns a fresh adversary that resets a rotating set of t
// processors every window.
func ResetStorm() WindowAdversary { return adversary.NewResetStorm() }

// Silence returns the adversary that never delivers messages from the given
// processors. The set is validated against cfg up front: at most cfg.T
// distinct processors, every ID in [0, cfg.N).
func Silence(cfg Config, silent ...ProcID) (WindowAdversary, error) {
	return adversary.NewFixedSilence(cfg.N, cfg.T, silent)
}

// Lockstep returns the fair step-mode scheduler for the Section 5 crash
// model.
func Lockstep() StepAdversary { return adversary.NewLockstep() }

// DuelingPaxos returns the dueling-proposers schedule that livelocks Paxos.
func DuelingPaxos() StepAdversary { return paxos.NewDuelScheduler() }

// SplitVoteAdversary returns the paper's Section 3 stalling strategy tuned
// to cfg's algorithm: it shows every processor an approximate split of the
// protocol's value-bearing messages, forcing fresh coin flips each round.
// Supported for the algorithms whose registry descriptor provides a vote
// classifier (core and Ben-Or).
func SplitVoteAdversary(cfg Config) (WindowAdversary, error) {
	return NewAdversary("splitvote", cfg)
}

// Run constructs the system, runs it under adv for at most maxWindows
// acceptable windows, and returns the summary.
func Run(cfg Config, adv WindowAdversary, maxWindows int) (RunResult, error) {
	s, err := New(cfg)
	if err != nil {
		return RunResult{}, err
	}
	return s.RunWindows(adv, maxWindows)
}

// Sweep expands the matrix over the registered algorithm × adversary ×
// scheduler × size × input × seed cross-product (skipping incompatible
// combinations and invalid sizes; an empty Schedulers axis expands every
// registered delivery scheduler) and fans the trials across the
// deterministic worker pool. The aggregated result is byte-identical to a
// serial run of the same matrix; render it with SweepResult.Table.
func Sweep(m Matrix) (*SweepResult, error) { return m.Run() }
