package main

// target.go is the benchmark's only door into the program under test: no
// other file of this package imports asyncagree/internal/.... Everything the
// benchmark leans on is named here (and listed in README.md), so a refactor
// of the repo knows exactly which symbols it would move under the benchmark.

import (
	"io"
	"time"

	"asyncagree/internal/registry"
	"asyncagree/internal/service"
	"asyncagree/internal/sim"
)

// The repo's types the rest of the benchmark handles, by alias.
type (
	// Matrix is a sweep grid (registry.Matrix).
	Matrix = registry.Matrix
	// Size is one (n, t) shape.
	Size = registry.Size
	// TrialRecord is one completed trial as the sinks see it.
	TrialRecord = registry.TrialRecord
	// ResultSink is the sink interface Matrix.RunWith drives.
	ResultSink = registry.ResultSink
	// Sweep is the aggregated outcome of a sweep.
	Sweep = registry.Sweep
	// Server is the agreement service (an http.Handler).
	Server = service.Server
	// ServerConfig configures a Server.
	ServerConfig = service.Config
)

// defaultMatrix is the grid cmd/sweep runs with no flags.
func defaultMatrix() Matrix { return registry.DefaultMatrix() }

// runSweep runs m on the worker pool into sinks, as cmd/sweep does.
func runSweep(m Matrix, sinks []ResultSink) (*Sweep, error) {
	return m.RunWith(registry.RunOptions{Sinks: sinks})
}

// newJSONLSink is the -out export format of cmd/sweep.
func newJSONLSink(w io.Writer) ResultSink { return registry.NewJSONLSink(w) }

// newCheckpointSink writes m's checkpoint header to w and returns the sink
// that appends the records after it, the <out>.ckpt file of cmd/sweep.
func newCheckpointSink(w io.Writer, m Matrix) (ResultSink, error) {
	if err := registry.WriteCheckpointHeader(w, m.GridSignature()); err != nil {
		return nil, err
	}
	return registry.NewJSONLSink(w), nil
}

// engineCounts is the process-wide pooled-engine lifecycle count.
type engineCounts struct{ acquired, released, poisoned int64 }

func engineCountsNow() engineCounts {
	s := registry.EngineStatsSnapshot()
	return engineCounts{acquired: s.Acquired, released: s.Released, poisoned: s.Poisoned}
}

func (c engineCounts) since(before engineCounts) engineCounts {
	return engineCounts{
		acquired: c.acquired - before.acquired,
		released: c.released - before.released,
		poisoned: c.poisoned - before.poisoned,
	}
}

// newServer builds the service exactly as cmd/agreed does.
func newServer(cfg ServerConfig) (*Server, error) { return service.New(cfg) }

// timedPlan wraps a trial's composed window adversary and accumulates the
// time spent planning. It forwards the columnar capability, so the system
// takes the same path (message or columnar) it takes without the wrapper.
type timedPlan struct {
	inner sim.WindowAdversary
	spent time.Duration
}

var _ sim.ColumnarPlanner = (*timedPlan)(nil)

func (p *timedPlan) PlanDelivery(s *sim.System, batch []sim.Message) sim.Window {
	start := time.Now()
	w := p.inner.PlanDelivery(s, batch)
	p.spent += time.Since(start)
	return w
}

func (p *timedPlan) PlansColumnar() bool {
	cp, ok := p.inner.(sim.ColumnarPlanner)
	return ok && cp.PlansColumnar()
}

func (p *timedPlan) PlanDeliveryColumnar(s *sim.System, cols *sim.ColumnSet) sim.Window {
	start := time.Now()
	w := p.inner.(sim.ColumnarPlanner).PlanDeliveryColumnar(s, cols)
	p.spent += time.Since(start)
	return w
}

// trialCost is what one replayed trial cost, by layer. acquire covers input
// generation and AcquireTrial, as the sweep's own trial executor pairs them;
// plan is the part of run spent inside the adversary and scheduler.
type trialCost struct {
	acquire, run, plan, release time.Duration
	// start is when the trial began, for the span log.
	start time.Time
	// columnar reports that the system planned the columnar path.
	columnar bool
}

func (c trialCost) total() time.Duration { return c.acquire + c.run + c.release }

// replayTrial runs the trial that coords names (result fields ignored) on
// this goroutine through the pooled engine, timing each layer from outside,
// and returns the record the sweep would have emitted for it.
func replayTrial(coords TrialRecord, maxWindows, shardWorkers int) (TrialRecord, trialCost, error) {
	var cost trialCost
	cost.start = time.Now()
	inputs, err := registry.Inputs(coords.Input, coords.N, coords.Seed)
	if err != nil {
		return TrialRecord{}, cost, err
	}
	p := registry.Params{N: coords.N, T: coords.T, Inputs: inputs, Seed: coords.Seed,
		ShardWorkers: shardWorkers}
	e, err := registry.AcquireTrial(coords.Algorithm, coords.Adversary, coords.Scheduler, p)
	if err != nil {
		return TrialRecord{}, cost, err
	}
	acquired := time.Now()
	plan := &timedPlan{inner: e.Plan()}
	cost.columnar = e.System().ColumnarPlanned(plan)
	res, _, err := e.System().RunWindowsUntil(plan, maxWindows, nil)
	ran := time.Now()
	if err != nil {
		// The engine is abandoned, as the sweep abandons a faulted one.
		return TrialRecord{}, cost, err
	}
	e.Release()
	released := time.Now()
	cost.acquire = acquired.Sub(cost.start)
	cost.run = ran.Sub(acquired)
	cost.plan = plan.spent
	cost.release = released.Sub(ran)

	out := TrialRecord{
		Index: coords.Index, Algorithm: coords.Algorithm, Adversary: coords.Adversary,
		Scheduler: coords.Scheduler, Input: coords.Input, N: coords.N, T: coords.T,
		Seed: coords.Seed, Windows: res.Windows, FirstDecision: res.FirstDecision,
		AllDecided: res.AllDecided, Agreement: res.Agreement, Validity: res.Validity,
		Decision: int(res.Decision), MaxChain: res.MaxChainDepth,
	}
	return out, cost, nil
}
