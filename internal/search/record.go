package search

import (
	"fmt"
	"io"

	"asyncagree/internal/registry"
	"asyncagree/internal/stats"
)

// EvalRecord is the unit of the search's streaming result pipeline: one
// evaluated candidate's coordinates and score. It is what search sinks
// consume and what search checkpoint files round-trip — a resumed search
// replays the recorded prefix through the driver's state machine (frontier,
// budget, dedup) without re-executing a single trial.
type EvalRecord struct {
	// Index is the evaluation's position in the search's global scheduling
	// order; emission and checkpoints are strictly Index-ordered.
	Index int `json:"index"`
	// Stage names the scheduling stage ("grid", "refine1".., "gen1"..).
	Stage string `json:"stage"`
	// N is the evaluated size's processor count, T its fault budget.
	N int `json:"n"`
	T int `json:"t"`
	Candidate
	// Trials is the number of seeded trials completed (all of
	// Options.TrialsPerCandidate for a clean evaluation; fewer when a fault
	// cut the evaluation short).
	Trials int `json:"trials"`
	// Survived counts trials with no decision within the window budget —
	// trials whose stall measurement is censored at MaxWindows.
	Survived int `json:"survived"`
	// MeanStall is the mean windows-to-first-decision across the seeds,
	// censored at MaxWindows: the candidate's score (higher = better
	// stalling adversary).
	MeanStall float64 `json:"mean_stall"`
	// MinStall and MaxStall bound the per-seed censored measurements.
	MinStall int `json:"min_stall"`
	MaxStall int `json:"max_stall"`
	// FaultKind classifies a faulted evaluation (the registry.Fault*
	// constants); empty for a clean one. Faulted evaluations never enter
	// the frontier.
	FaultKind string `json:"fault_kind,omitempty"`
	// Fault is the human-readable fault description.
	Fault string `json:"fault,omitempty"`
}

// Faulted reports whether the evaluation ended in a fault record.
func (r EvalRecord) Faulted() bool { return r.FaultKind != "" }

// Key renders the evaluation's stable identity — stage, size, and candidate
// — used to verify that a resumed checkpoint prefix matches the schedule
// the driver regenerates.
func (r EvalRecord) Key() string {
	return fmt.Sprintf("%s|%d:%d|%s", r.Stage, r.N, r.T, r.Candidate.Key())
}

// The search streams its evaluations through the registry's generic record
// pipeline; these names bind it to EvalRecord.
type (
	// Sink consumes completed evaluations in strictly increasing Index
	// order — a registry.Sink of evaluation records.
	Sink = registry.Sink[EvalRecord]
	// NamedSink attaches a human-readable name (typically the output path)
	// to a sink for degradation reports.
	NamedSink = registry.Named[EvalRecord]
)

// NewJSONLSink wraps w in a buffered JSONL evaluation writer — the search
// export and checkpoint body format.
func NewJSONLSink(w io.Writer) *registry.JSONLSink[EvalRecord] {
	return registry.NewJSONLSinkOf[EvalRecord](w)
}

// LoadCheckpoint reads the verified evaluation prefix of a search
// checkpoint recorded against sig (Options.Signature): the same header
// check and corruption-salvage semantics as the sweep's
// registry.LoadCheckpointSalvage, with EvalRecord bodies. A missing file
// yields (nil, nil, nil) — a fresh search.
func LoadCheckpoint(path, sig string) ([]EvalRecord, *registry.SalvageReport, error) {
	return registry.LoadCheckpointRecords(path, sig, func(r EvalRecord) int { return r.Index })
}

// Report is the aggregated outcome of one search run.
type Report struct {
	// Signature is the resolved search signature (Options.Signature).
	Signature string
	// Sizes lists the sizes searched, in schedule order.
	Sizes []registry.Size
	// Skipped records sizes the algorithm's validation rejected.
	Skipped []string
	// Evals is the number of candidate evaluations emitted; TrialsSpent the
	// total seeded trials they consumed.
	Evals, TrialsSpent int
	// Faulted counts evaluations that ended in a fault record.
	Faulted int
	// BudgetExhausted reports that the trial budget cut the schedule short.
	BudgetExhausted bool
	// Frontier maps each size (Size.String()) to its best evaluations,
	// best-first, at most Options.TopK entries.
	Frontier map[string][]EvalRecord
	// SinkFailures records sinks dropped mid-run after their retry budget
	// was exhausted, mirroring registry.Sweep.SinkFailures.
	SinkFailures []string
}

// Healthy reports whether the search ran with no faulted evaluations and
// no dropped sinks.
func (r *Report) Healthy() bool {
	return r.Faulted == 0 && len(r.SinkFailures) == 0
}

// Best returns the top frontier entry for size.
func (r *Report) Best(size registry.Size) (EvalRecord, bool) {
	f := r.Frontier[size.String()]
	if len(f) == 0 {
		return EvalRecord{}, false
	}
	return f[0], true
}

// Table renders the frontier as an aligned text table: one row per retained
// frontier entry, sizes in schedule order, best first within a size.
func (r *Report) Table() *stats.Table {
	table := stats.NewTable("n", "t", "rank", "candidate", "stage",
		"trials", "survived", "mean-stall", "min", "max")
	for _, size := range r.Sizes {
		for rank, rec := range r.Frontier[size.String()] {
			table.AddRow(rec.N, rec.T, rank+1, rec.Candidate.Key(), rec.Stage,
				rec.Trials, rec.Survived, rec.MeanStall, rec.MinStall, rec.MaxStall)
		}
	}
	return table
}
