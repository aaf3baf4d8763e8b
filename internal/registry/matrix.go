package registry

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"asyncagree/internal/faultinject"
	"asyncagree/internal/sim"
	"asyncagree/internal/stats"
)

// Size is one (n, t) system shape.
type Size struct {
	// N is the processor count, T the fault budget.
	N, T int
}

// String implements fmt.Stringer.
func (s Size) String() string { return fmt.Sprintf("%d:%d", s.N, s.T) }

// Matrix describes a scenario sweep: the cross-product of algorithms ×
// adversaries × schedulers × sizes × input patterns, each cell run once per
// seed as an independent trial. Empty axes default to "everything
// registered" (or the DefaultMatrix grid for sizes/inputs/seeds), so the
// zero Matrix runs the full compatible cross-product.
//
// Expansion skips two kinds of cells without error: combinations a
// compatibility predicate rejects — the adversary's against the algorithm,
// or the scheduler's against the (algorithm, adversary) pairing — counted
// in Sweep.Incompatible, and sizes the algorithm's validation rejects
// (recorded in Sweep.Skipped, e.g. the core algorithm at t >= n/6).
// Everything that remains must run cleanly.
type Matrix struct {
	// Algorithms lists algorithm names; empty = all registered.
	Algorithms []string
	// Adversaries lists adversary names; empty = all registered.
	Adversaries []string
	// Schedulers lists delivery-scheduler names; empty = all registered.
	// The "adversary" scheduler keeps the adversary's own sender sets, so
	// a sweep restricted to it runs exactly the pre-scheduler trials with
	// identical per-trial results (the rendered table still gains a
	// scheduler column).
	Schedulers []string
	// Sizes lists (n, t) shapes; empty = DefaultMatrix().Sizes.
	Sizes []Size
	// Inputs lists input pattern names; empty = DefaultMatrix().Inputs.
	Inputs []string
	// Seeds lists per-trial seeds; empty = DefaultMatrix().Seeds.
	Seeds []uint64
	// MaxWindows is the per-trial window budget; 0 = DefaultMatrix().MaxWindows.
	MaxWindows int
}

// DefaultMatrix returns the default sweep grid: every registered algorithm
// under every compatible adversary and delivery scheduler at four sizes
// (27:3 is the smallest shape the committee algorithm's default
// parameterization supports), split and unanimous-1 inputs, three seeds.
func DefaultMatrix() Matrix {
	return Matrix{
		Sizes:      []Size{{N: 12, T: 1}, {N: 18, T: 2}, {N: 24, T: 3}, {N: 27, T: 3}},
		Inputs:     []string{"split", "ones"},
		Seeds:      []uint64{1, 2, 3},
		MaxWindows: 20000,
	}
}

// Cell identifies one aggregated sweep entry.
type Cell struct {
	// Algorithm, Adversary, Scheduler, and Input are the registry keys of
	// the cell's coordinates along each named axis.
	Algorithm, Adversary, Scheduler, Input string
	// Size is the cell's (n, t) shape.
	Size Size
}

// CellResult aggregates the seeded trials of one cell.
type CellResult struct {
	Cell
	// Trials is the number of seeds run; Decided how many of them reached
	// universal decision within the window budget.
	Trials, Decided int
	// AgreeViol and ValidViol count trials violating agreement or validity.
	AgreeViol, ValidViol int
	// MeanWindows is the mean window count of the decided trials (0 when
	// none decided).
	MeanWindows float64
	// MaxChain is the largest message-chain depth observed in any trial.
	MaxChain int
}

// Sweep is the aggregated result of Matrix.Run.
type Sweep struct {
	// Cells holds one aggregated row per expanded cell, in deterministic
	// expansion order (algorithm-major, then adversary, scheduler, size,
	// input).
	Cells []CellResult
	// TrialCount is the total number of trials executed.
	TrialCount int
	// Windows is the window count of the clean trials, resumed ones
	// included: the sum of their records' windows.
	Windows int
	// Incompatible counts combinations skipped by a compatibility
	// predicate: (algorithm, adversary, size) triples the adversary
	// rejects, plus (algorithm, adversary, scheduler, size) quadruples the
	// scheduler rejects (input patterns do not affect compatibility, so
	// both are counted before the input axis expands).
	Incompatible int
	// Skipped records cells whose size failed the algorithm's parameter
	// validation, e.g. "core 12:3: ... t >= n/6".
	Skipped []string
	// Faulted counts trials that ended in a fault record instead of a clean
	// result: panics, watchdog deadlines, trial errors, and quarantine
	// skips. Faulted trials never enter the per-cell aggregates.
	Faulted int
	// Quarantined records cells quarantined after QuarantineAfter
	// consecutive faults, in the order quarantine fired (the same reporting
	// shape as Skipped — the sweep proceeds without them).
	Quarantined []string
	// SinkFailures records sinks dropped mid-run (or failing their final
	// flush) after their retry budget was exhausted. The sweep and its
	// aggregates are unaffected; callers surface the loss in the exit
	// status.
	SinkFailures []string
}

// Healthy reports whether the sweep ran with no faulted trials, no
// quarantined cells, and no dropped sinks.
func (s *Sweep) Healthy() bool {
	return s.Faulted == 0 && len(s.Quarantined) == 0 && len(s.SinkFailures) == 0
}

// trialSpec is one fully expanded trial.
type trialSpec struct {
	cell int // index into the expanded cell list
	Cell
	seed       uint64
	maxWindows int
}

// key renders the trial's stable identity. It delegates to
// TrialRecord.Key so exactly one key format exists — the checkpoint-prefix
// verification in RunWith depends on the two staying byte-identical.
func (ts trialSpec) key() string {
	return newTrialRecord(0, ts, sim.RunResult{}).Key()
}

// resolve fills empty axes with their defaults, returning the fully
// explicit matrix every expansion-order computation works from.
func (m Matrix) resolve() Matrix {
	if len(m.Algorithms) == 0 {
		m.Algorithms = AlgorithmNames()
	}
	if len(m.Adversaries) == 0 {
		m.Adversaries = AdversaryNames()
	}
	if len(m.Schedulers) == 0 {
		m.Schedulers = SchedulerNames()
	}
	def := DefaultMatrix()
	if len(m.Sizes) == 0 {
		m.Sizes = def.Sizes
	}
	if len(m.Inputs) == 0 {
		m.Inputs = def.Inputs
	}
	if len(m.Seeds) == 0 {
		m.Seeds = def.Seeds
	}
	if m.MaxWindows <= 0 {
		m.MaxWindows = def.MaxWindows
	}
	return m
}

// GridSignature renders the resolved grid as a canonical one-line string.
// Checkpoint files record it so a resume against different axes (which
// would silently misalign trial indices) is rejected instead of merged.
func (m Matrix) GridSignature() string {
	m = m.resolve()
	var b strings.Builder
	join := func(label string, parts []string) {
		b.WriteString(label)
		b.WriteByte('=')
		b.WriteString(strings.Join(parts, ","))
		b.WriteByte(' ')
	}
	join("algs", m.Algorithms)
	join("advs", m.Adversaries)
	join("scheds", m.Schedulers)
	sizes := make([]string, len(m.Sizes))
	for i, s := range m.Sizes {
		sizes[i] = s.String()
	}
	join("sizes", sizes)
	join("inputs", m.Inputs)
	seeds := make([]string, len(m.Seeds))
	for i, s := range m.Seeds {
		seeds[i] = fmt.Sprintf("%d", s)
	}
	join("seeds", seeds)
	fmt.Fprintf(&b, "max-windows=%d", m.MaxWindows)
	return b.String()
}

// expand resolves defaults and produces the deterministic cell list and the
// skip records. Trials are never materialized: trial i is derived on demand
// from the cell list (cells[i/len(Seeds)], seed Seeds[i%len(Seeds)]), so the
// sweep's retained state is O(cells) regardless of the seed count. The
// returned Matrix is the resolved grid the trial derivation indexes into.
func (m Matrix) expand() (cells []Cell, resolved Matrix, sweep *Sweep, err error) {
	m = m.resolve()
	sweep = &Sweep{}
	for _, pattern := range m.Inputs {
		if _, err := Inputs(pattern, 1, 1); err != nil {
			return nil, m, nil, err
		}
	}
	for _, algName := range m.Algorithms {
		alg, err := LookupAlgorithm(algName)
		if err != nil {
			return nil, m, nil, err
		}
		for _, advName := range m.Adversaries {
			// An adversary-level rejection is the triple with the
			// adversary's own scheduler: it holds for every scheduler, so
			// it is counted once, not once per scheduler.
			own, _, err := Pair(algName, advName, "adversary")
			if err != nil {
				return nil, m, nil, err
			}
			for _, schedName := range m.Schedulers {
				promise, _, err := Pair(algName, advName, schedName)
				if err != nil {
					return nil, m, nil, err
				}
				for _, size := range m.Sizes {
					p := Params{N: size.N, T: size.T}
					if verr := alg.Validate(p); verr != nil {
						if advName == m.Adversaries[0] && schedName == m.Schedulers[0] {
							// Record an invalid size once per algorithm,
							// not once per adversary/scheduler pairing.
							sweep.Skipped = append(sweep.Skipped,
								fmt.Sprintf("%s %s: %v", algName, size, verr))
						}
						continue
					}
					if own == Unpaired {
						if schedName == m.Schedulers[0] {
							sweep.Incompatible++
						}
						continue
					}
					if promise == Unpaired {
						sweep.Incompatible++
						continue
					}
					for _, pattern := range m.Inputs {
						cells = append(cells, Cell{Algorithm: algName, Adversary: advName,
							Scheduler: schedName, Input: pattern, Size: size})
					}
				}
			}
		}
	}
	return cells, m, sweep, nil
}

// specAt derives trial i of the expanded grid: seeds iterate innermost per
// cell, matching the historical materialized expansion order. m must be the
// resolved matrix returned by expand.
func (m Matrix) specAt(cells []Cell, i int) trialSpec {
	s := len(m.Seeds)
	return trialSpec{
		cell: i / s, Cell: cells[i/s],
		seed: m.Seeds[i%s], maxWindows: m.MaxWindows,
	}
}

// RunOptions configures the streaming result pipeline of Matrix.RunWith.
// The zero value reproduces Matrix.Run exactly.
type RunOptions struct {
	// Sinks receive every completed live trial in index order, then a
	// final Flush (also on error/interrupt, so partial work is never
	// dropped). Replayed Resume records do not re-enter the sinks — their
	// bytes are already in the sink outputs of the interrupted run.
	Sinks []ResultSink
	// Resume holds the completed-trial prefix of an earlier interrupted
	// run (loaded from its checkpoint). Records must match the expanded
	// grid's leading trial keys exactly — RunWith re-verifies and fails on
	// mismatch — and their results flow through aggregation (not the
	// sinks) instead of re-executing the trials.
	Resume []TrialRecord
	// Stop is polled on the serial emission path after every emitted
	// trial, and again before each trial starts (workers may already have
	// claimed up to a reorder window of trials when it first returns
	// true); returning true stops the sweep cleanly with ErrInterrupted
	// once in-flight trials drain. Everything emitted before the stop is
	// already in the sinks.
	Stop func() bool
	// Progress, if set, observes the emission frontier after every trial:
	// done trials out of total. It runs on the serial emission path —
	// keep it cheap.
	Progress func(done, total int)
	// Serial runs the trials on a plain serial loop instead of the worker
	// pool (byte-identical output, used by determinism tests and -serial).
	Serial bool
	// TrialDeadline is the per-trial wall-clock budget, enforced
	// cooperatively on window boundaries alongside MaxWindows: a trial that
	// exceeds it becomes a recorded FaultDeadline outcome instead of a hung
	// worker. 0 disables the watchdog. Because real time is involved, which
	// trials fault can differ run to run — but clean records are
	// byte-identical either way, and a given run's record stream is still
	// strictly index-ordered.
	TrialDeadline time.Duration
	// QuarantineAfter is the number of consecutive faulted trials after
	// which a cell is quarantined: its remaining trials are skipped with
	// FaultQuarantined records and the cell is reported in
	// Sweep.Quarantined. 0 selects DefaultQuarantineAfter; negative
	// disables quarantine.
	QuarantineAfter int
	// Inject is the deterministic fault-injection plan (nil injects
	// nothing). RunWith materializes seeded selections against the expanded
	// trial count before the first trial runs.
	Inject *faultinject.Plan
}

// DefaultQuarantineAfter is the consecutive-fault threshold that
// quarantines a cell when RunOptions.QuarantineAfter is zero.
const DefaultQuarantineAfter = 3

// firstLine truncates a fault description (which may carry a stack) to its
// first line for single-line reports.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// cellAgg folds trial results into per-cell aggregates online — the O(cells)
// state that replaces the historical O(trials) result slice. The arithmetic
// is integer until the final mean division, so aggregation is byte-identical
// under any emission interleaving (emission is index-ordered anyway).
type cellAgg struct {
	sweep      *Sweep
	windowSums []int
}

func newCellAgg(sweep *Sweep, cells []Cell) *cellAgg {
	sweep.Cells = make([]CellResult, len(cells))
	for i, c := range cells {
		sweep.Cells[i] = CellResult{Cell: c}
	}
	return &cellAgg{sweep: sweep, windowSums: make([]int, len(cells))}
}

func (a *cellAgg) consume(cell int, res sim.RunResult) {
	cr := &a.sweep.Cells[cell]
	cr.Trials++
	a.sweep.Windows += res.Windows
	if res.AllDecided {
		cr.Decided++
		a.windowSums[cell] += res.Windows
	}
	if !res.Agreement {
		cr.AgreeViol++
	}
	if !res.Validity {
		cr.ValidViol++
	}
	if res.MaxChainDepth > cr.MaxChain {
		cr.MaxChain = res.MaxChainDepth
	}
}

func (a *cellAgg) finalize() {
	for i := range a.sweep.Cells {
		if d := a.sweep.Cells[i].Decided; d > 0 {
			a.sweep.Cells[i].MeanWindows = float64(a.windowSums[i]) / float64(d)
		}
	}
}

// Run expands the matrix and fans the trials across the deterministic
// worker pool, reducing per-cell aggregates online. The output is
// byte-identical to a RunOptions.Serial run: every trial derives all
// randomness from its seed, draws a private (pooled or fresh —
// indistinguishable) system + adversary state, and is delivered to the
// aggregator in trial-index order.
func (m Matrix) Run() (*Sweep, error) { return m.RunWith(RunOptions{}) }

// RunWith expands the matrix and streams every trial through the result
// pipeline: trials execute across the worker pool (or serially), results
// are delivered in strictly increasing trial-index order to the per-cell
// online aggregator and the configured sinks, and peak retained result
// memory is O(cells) + the pool's bounded reorder window — independent of
// the trial count. See RunOptions for resume, interruption, and progress.
func (m Matrix) RunWith(opts RunOptions) (*Sweep, error) {
	cells, resolved, sweep, err := m.expand()
	if err != nil {
		return nil, err
	}
	total := len(cells) * len(resolved.Seeds)
	if len(opts.Resume) > total {
		return nil, fmt.Errorf("registry: checkpoint has %d trials, grid only %d", len(opts.Resume), total)
	}
	inject := opts.Inject
	inject.Materialize(total)
	quarAfter := opts.QuarantineAfter
	if quarAfter == 0 {
		quarAfter = DefaultQuarantineAfter
	}

	agg := newCellAgg(sweep, cells)
	// Quarantine bookkeeping lives in the fold, on the serial emission path,
	// so the decision is a pure function of the index-ordered record stream
	// — identical on serial and parallel runs. quarFlags is only a
	// claim-time skip hint for workers; it is monotone (set strictly before
	// the flagged cell's later trials are emitted), so acting on it early
	// never changes the emitted records, just saves the work of running a
	// doomed trial.
	var (
		quarFlags   = make([]atomic.Bool, len(cells))
		quarantined = make([]bool, len(cells))
		quarReason  = make([]string, len(cells))
		consec      = make([]int, len(cells))
	)
	key := func(i int) string { return resolved.specAt(cells, i).key() }
	// execute runs one live trial: this front end decides which watchdog to
	// arm (an injected panic or stall, else the wall-clock deadline) and
	// words the fault; RunContained does everything else.
	execute := func(i int) TrialRecord {
		ts := resolved.specAt(cells, i)
		if quarFlags[ts.cell].Load() {
			return TrialRecord{FaultKind: FaultQuarantined} // the fold rewrites it
		}
		var expired func(windows int) bool
		stallDesc := ""
		if inject.ShouldPanic(i) {
			// Panic on the first watchdog poll — after the engine is
			// acquired, so the injected fault exercises the real
			// poisoned-engine discard path.
			expired = func(int) bool {
				panic(fmt.Sprintf("faultinject: injected panic (trial %d, %s)", i, ts.key()))
			}
		} else if w, ok := inject.ShouldStall(i); ok {
			stallDesc = fmt.Sprintf("faultinject: injected stall at window %d", w)
			expired = func(windows int) bool { return windows >= w }
		} else if opts.TrialDeadline > 0 {
			start := time.Now()
			deadline := opts.TrialDeadline
			stallDesc = fmt.Sprintf("trial exceeded wall-clock deadline %s", deadline)
			expired = func(windows int) bool {
				return windows%DeadlineCheckInterval == 0 && time.Since(start) > deadline
			}
		}
		out := RunContained(ts.Algorithm, ts.Adversary, ts.Scheduler, ts.Input,
			Params{N: ts.Size.N, T: ts.Size.T, Seed: ts.seed},
			ts.maxWindows, expired, nil)
		rec := newTrialRecord(i, ts, out.Result)
		rec.FaultKind, rec.Fault = out.Kind, out.Fault
		switch out.Kind {
		case FaultError:
			rec.Fault = fmt.Sprintf("%s (trial %d, %s)", out.Fault, i, ts.key())
		case FaultDeadline:
			rec.Fault = fmt.Sprintf("%s after %d windows (trial %d, %s)", stallDesc, out.Result.Windows, i, ts.key())
		}
		return rec
	}
	fold := func(i int, rec TrialRecord) TrialRecord {
		cell := i / len(resolved.Seeds)
		if quarantined[cell] {
			// Deterministic rewrite: once a cell is quarantined every later
			// trial of it — whether skipped at claim time or already
			// executed by a worker that ran ahead — emits the same record.
			rec = newTrialRecord(i, resolved.specAt(cells, i), sim.RunResult{})
			rec.FaultKind, rec.Fault = FaultQuarantined, quarReason[cell]
		}
		switch {
		case !rec.Faulted():
			agg.consume(cell, rec.Result())
			consec[cell] = 0
		case rec.FaultKind == FaultQuarantined:
			sweep.Faulted++
		default:
			sweep.Faulted++
			consec[cell]++
			if quarAfter > 0 && consec[cell] >= quarAfter {
				c := cells[cell]
				quarantined[cell] = true
				quarReason[cell] = fmt.Sprintf("cell quarantined after %d consecutive faults", consec[cell])
				quarFlags[cell].Store(true)
				sweep.Quarantined = append(sweep.Quarantined,
					fmt.Sprintf("%s/%s/%s/%s %s: quarantined after %d consecutive faults (last: %s: %s)",
						c.Algorithm, c.Adversary, c.Scheduler, c.Input, c.Size,
						consec[cell], rec.FaultKind, firstLine(rec.Fault)))
			}
		}
		if opts.Progress != nil {
			opts.Progress(i+1, total)
		}
		return rec
	}

	pipe := Pipeline[TrialRecord]{Unit: "trial", Sinks: opts.Sinks, Resume: opts.Resume,
		Stop: opts.Stop, Serial: opts.Serial}
	err = pipe.Run(total, key, execute, fold)
	sweep.SinkFailures = pipe.Flush()
	if err != nil {
		return nil, err
	}
	sweep.TrialCount = total
	agg.finalize()
	return sweep, nil
}

// Table renders the sweep as an aligned text table in expansion order.
func (s *Sweep) Table() *stats.Table {
	table := stats.NewTable("algorithm", "adversary", "scheduler", "inputs", "n", "t",
		"trials", "decided", "agree-viol", "valid-viol", "mean-windows", "max-chain")
	for _, c := range s.Cells {
		table.AddRow(c.Algorithm, c.Adversary, c.Scheduler, c.Input, c.Size.N, c.Size.T,
			c.Trials, fmt.Sprintf("%d/%d", c.Decided, c.Trials),
			c.AgreeViol, c.ValidViol, c.MeanWindows, c.MaxChain)
	}
	return table
}

// SafetyViolations counts agreement/validity violations in cells whose
// algorithm guarantees safety with probability 1. Any non-zero count is a
// bug, never an expected outcome.
func (s *Sweep) SafetyViolations() int {
	total := 0
	for _, c := range s.Cells {
		alg, err := LookupAlgorithm(c.Algorithm)
		if err != nil || !alg.SafetyCertain {
			continue
		}
		total += c.AgreeViol + c.ValidViol
	}
	return total
}
