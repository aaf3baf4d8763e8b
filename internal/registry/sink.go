package registry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"asyncagree/internal/sim"
)

// TrialRecord is the unit of the streaming result pipeline: one completed
// trial's coordinates and outcome. It is what sinks consume, what the
// JSONL/CSV exports serialize, and what checkpoint files round-trip — the
// record carries the full sim.RunResult, so a resumed sweep can replay
// completed trials through aggregation without re-executing them.
type TrialRecord struct {
	// Index is the trial's position in grid expansion order; emission and
	// checkpoints are strictly Index-ordered.
	Index int `json:"index"`
	// Algorithm is the registry key of the trial's algorithm.
	Algorithm string `json:"algorithm"`
	// Adversary is the registry key of the trial's adversary.
	Adversary string `json:"adversary"`
	// Scheduler is the registry key of the trial's delivery scheduler.
	Scheduler string `json:"scheduler"`
	// Input is the registry key of the trial's input pattern.
	Input string `json:"input"`
	// N is the cell's processor count.
	N int `json:"n"`
	// T is the cell's fault budget.
	T int `json:"t"`
	// Seed is the trial's seed.
	Seed uint64 `json:"seed"`
	// Windows mirrors sim.RunResult.Windows.
	Windows int `json:"windows"`
	// FirstDecision mirrors sim.RunResult.FirstDecision.
	FirstDecision int `json:"first_decision"`
	// AllDecided mirrors sim.RunResult.AllDecided.
	AllDecided bool `json:"all_decided"`
	// Agreement mirrors sim.RunResult.Agreement.
	Agreement bool `json:"agreement"`
	// Validity mirrors sim.RunResult.Validity.
	Validity bool `json:"validity"`
	// Decision mirrors sim.RunResult.Decision.
	Decision int `json:"decision"`
	// MaxChain mirrors sim.RunResult.MaxChainDepth.
	MaxChain int `json:"max_chain"`
	// FaultKind classifies a faulted trial (FaultPanic, FaultDeadline,
	// FaultError, FaultQuarantined); empty for a clean trial. Both fault
	// fields marshal with omitempty, so clean records — and therefore whole
	// clean runs — serialize byte-identically to the pre-fault format.
	FaultKind string `json:"fault_kind,omitempty"`
	// Fault is the human-readable fault description (panic value and stack,
	// deadline report, or quarantine reason); empty for a clean trial.
	Fault string `json:"fault,omitempty"`
}

// Fault kinds recorded in TrialRecord.FaultKind.
const (
	// FaultPanic marks a trial whose execution panicked; Fault carries the
	// panic value and the recovered stack.
	FaultPanic = "panic"
	// FaultDeadline marks a trial stopped by the stall watchdog; the partial
	// result fields describe the configuration at the stop.
	FaultDeadline = "deadline"
	// FaultError marks a trial whose execution returned an error (an illegal
	// window, a safety violation, a construction failure).
	FaultError = "error"
	// FaultQuarantined marks a trial skipped because its cell was
	// quarantined after consecutive faults; Fault carries the quarantine
	// reason.
	FaultQuarantined = "quarantined"
)

// Faulted reports whether the record describes a faulted (non-clean) trial.
func (r TrialRecord) Faulted() bool { return r.FaultKind != "" }

// newTrialRecord assembles the record of one completed trial.
func newTrialRecord(index int, ts trialSpec, res sim.RunResult) TrialRecord {
	return TrialRecord{
		Index:     index,
		Algorithm: ts.Algorithm, Adversary: ts.Adversary,
		Scheduler: ts.Scheduler, Input: ts.Input,
		N: ts.Size.N, T: ts.Size.T, Seed: ts.seed,
		Windows: res.Windows, FirstDecision: res.FirstDecision,
		AllDecided: res.AllDecided, Agreement: res.Agreement,
		Validity: res.Validity, Decision: int(res.Decision),
		MaxChain: res.MaxChainDepth,
	}
}

// Key renders the record's stable trial identity, matching trialSpec.key.
func (r TrialRecord) Key() string {
	return fmt.Sprintf("%s/%s/%s/%s/%d:%d#%d",
		r.Algorithm, r.Adversary, r.Scheduler, r.Input, r.N, r.T, r.Seed)
}

// Result reconstructs the sim.RunResult the record was built from.
func (r TrialRecord) Result() sim.RunResult {
	return sim.RunResult{
		Windows: r.Windows, FirstDecision: r.FirstDecision,
		AllDecided: r.AllDecided, Agreement: r.Agreement,
		Validity: r.Validity, Decision: sim.Bit(r.Decision),
		MaxChainDepth: r.MaxChain,
	}
}

// ResultSink is a Sink of trial records: what Matrix.RunWith drives.
type ResultSink = Sink[TrialRecord]

// NamedSink is Named for trial records.
type NamedSink = Named[TrialRecord]

// NewJSONLSink wraps w in a buffered JSONL writer of trial records — the
// sweep's -out export and checkpoint body format.
func NewJSONLSink(w io.Writer) *JSONLSink[TrialRecord] { return NewJSONLSinkOf[TrialRecord](w) }

// csvHeader is the CSVSink column order (one column per TrialRecord field).
var csvHeader = []string{"index", "algorithm", "adversary", "scheduler", "input",
	"n", "t", "seed", "windows", "first_decision", "all_decided", "agreement",
	"validity", "decision", "max_chain", "fault_kind", "fault"}

// csvEscape quotes a field per RFC 4180 when it contains a comma, quote, or
// newline (fault descriptions carry stacks); plain fields — every field of
// a clean record — pass through unchanged, keeping clean rows byte-stable.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// CSVSink streams records as comma-separated rows under a fixed header.
type CSVSink struct {
	w           *bufio.Writer
	wroteHeader bool
}

// NewCSVSink wraps w in a buffered CSV record writer; the header row is
// written before the first record.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{w: bufio.NewWriter(w)} }

// SkipHeader marks the header as already present — used when appending to
// a partially written file on resume.
func (s *CSVSink) SkipHeader() { s.wroteHeader = true }

// Consume implements ResultSink.
func (s *CSVSink) Consume(rec TrialRecord) error {
	if !s.wroteHeader {
		if _, err := s.w.WriteString(strings.Join(csvHeader, ",") + "\n"); err != nil {
			return err
		}
		s.wroteHeader = true
	}
	row := []string{
		strconv.Itoa(rec.Index), rec.Algorithm, rec.Adversary, rec.Scheduler, rec.Input,
		strconv.Itoa(rec.N), strconv.Itoa(rec.T), strconv.FormatUint(rec.Seed, 10),
		strconv.Itoa(rec.Windows), strconv.Itoa(rec.FirstDecision),
		strconv.FormatBool(rec.AllDecided), strconv.FormatBool(rec.Agreement),
		strconv.FormatBool(rec.Validity), strconv.Itoa(rec.Decision),
		strconv.Itoa(rec.MaxChain),
		rec.FaultKind, csvEscape(rec.Fault),
	}
	_, err := s.w.WriteString(strings.Join(row, ",") + "\n")
	return err
}

// Flush implements ResultSink.
func (s *CSVSink) Flush() error { return s.w.Flush() }

// checkpointHeader is the first line of a checkpoint file: the resolved
// grid signature it was recorded against plus a format version.
type checkpointHeader struct {
	Version int    `json:"version"`
	Grid    string `json:"grid"`
}

const checkpointVersion = 1

// WriteCheckpointHeader starts a checkpoint stream: the header line, after
// which every completed trial is appended as a JSONL TrialRecord (a
// JSONLSink over the same writer).
func WriteCheckpointHeader(w io.Writer, grid string) error {
	b, err := json.Marshal(checkpointHeader{Version: checkpointVersion, Grid: grid})
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// SalvageReport describes what checkpoint loading had to discard to
// recover a usable prefix. The zero value means the file was pristine.
type SalvageReport struct {
	// CorruptLines lists the 1-based line numbers of mid-file records that
	// failed to parse and were skipped (the following record continued the
	// index sequence, proving the corrupt line was garbage insertion, not a
	// lost record).
	CorruptLines []int
	// TornTail reports an unparseable final line — the classic shape of a
	// run killed mid-append — discarded without shortening the prefix.
	TornTail bool
	// DroppedAfterGap counts trailing lines (parseable or not) discarded
	// because a corrupt region swallowed at least one record: the index
	// sequence could not be re-verified past the gap, so the durable prefix
	// ends before it.
	DroppedAfterGap int
}

// Empty reports whether loading salvaged nothing (the file was pristine).
func (r *SalvageReport) Empty() bool {
	return r == nil || len(r.CorruptLines) == 0 && !r.TornTail && r.DroppedAfterGap == 0
}

// String renders the salvage summary for run logs.
func (r *SalvageReport) String() string {
	if r.Empty() {
		return "checkpoint intact"
	}
	var parts []string
	if n := len(r.CorruptLines); n > 0 {
		lines := make([]string, n)
		for i, l := range r.CorruptLines {
			lines[i] = strconv.Itoa(l)
		}
		parts = append(parts, fmt.Sprintf("skipped %d corrupt record(s) (line %s)", n, strings.Join(lines, ",")))
	}
	if r.TornTail {
		parts = append(parts, "discarded torn final line")
	}
	if r.DroppedAfterGap > 0 {
		parts = append(parts, fmt.Sprintf("dropped %d line(s) after an unrecoverable gap", r.DroppedAfterGap))
	}
	return "checkpoint salvage: " + strings.Join(parts, "; ")
}

// LoadCheckpoint reads the completed-trial prefix recorded in a checkpoint
// file, discarding whatever damage can be proven harmless (see
// LoadCheckpointSalvage, which it wraps discarding the report).
func LoadCheckpoint(path, grid string) ([]TrialRecord, error) {
	records, _, err := LoadCheckpointSalvage(path, grid)
	return records, err
}

// LoadCheckpointSalvage reads the completed-trial prefix recorded in a
// checkpoint file. A missing file yields (nil, nil, nil) — a fresh run. A
// grid signature mismatch (or an unreadable header) is an error: the trial
// indices of a different grid would not line up, and a header can't be
// salvaged because the grid check is what makes the records trustworthy.
//
// Body damage is salvaged instead of fatal, and reported:
//
//   - A torn final line (the run was killed mid-write) is discarded;
//     everything before it is the durable prefix.
//   - A corrupt mid-file record is skipped if the next parseable record
//     continues the contiguous index sequence 0..k-1 — the skip is
//     re-verified, so only proven garbage insertions are ignored.
//   - If the index sequence cannot be re-verified past a corrupt region
//     (a record was lost inside it), the prefix ends at the last verified
//     record and everything after the gap is dropped.
//
// A non-contiguous index in an otherwise clean file is still an error: with
// no corruption to blame, the file does not hold the index-ordered prefix
// emission guarantees, and resuming from it would misalign every trial.
func LoadCheckpointSalvage(path, grid string) ([]TrialRecord, *SalvageReport, error) {
	return LoadCheckpointRecords(path, grid, func(r TrialRecord) int { return r.Index })
}

// LoadCheckpointRecords is the format-generic core of checkpoint loading,
// shared by the sweep checkpoints (TrialRecord bodies) and the search
// checkpoints (search evaluation records): the header/signature check and
// the salvage semantics are exactly those documented on
// LoadCheckpointSalvage, with body lines unmarshaled into R. index must
// return a record's position field; a loadable file holds the contiguous
// prefix 0..k-1.
func LoadCheckpointRecords[R any](path, grid string, index func(R) int) ([]R, *SalvageReport, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, nil, nil // empty file: treat as fresh
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, nil, fmt.Errorf("registry: %s: bad checkpoint header: %w", path, err)
	}
	if hdr.Version != checkpointVersion {
		return nil, nil, fmt.Errorf("registry: %s: checkpoint version %d, want %d", path, hdr.Version, checkpointVersion)
	}
	if hdr.Grid != grid {
		return nil, nil, fmt.Errorf("registry: %s: checkpoint grid %q does not match current grid %q",
			path, hdr.Grid, grid)
	}
	var (
		records []R
		rep     = &SalvageReport{}
		line    = 1   // the header was line 1
		pending []int // unparseable lines since the last verified record
	)
	for sc.Scan() {
		line++
		var rec R
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			pending = append(pending, line)
			continue
		}
		if index(rec) == len(records) {
			// The record continues the prefix: any unparseable lines before
			// it were garbage insertions, proven skippable.
			rep.CorruptLines = append(rep.CorruptLines, pending...)
			pending = nil
			records = append(records, rec)
			continue
		}
		if len(pending) > 0 || len(rep.CorruptLines) > 0 {
			// A corrupt region swallowed at least one record; the sequence
			// cannot be re-verified past the gap, so the prefix ends here.
			rep.DroppedAfterGap = 1 + len(pending)
			pending = nil
			for sc.Scan() {
				rep.DroppedAfterGap++
			}
			break
		}
		return nil, nil, fmt.Errorf("registry: %s: checkpoint record %d has index %d (not a contiguous prefix)",
			path, len(records), index(rec))
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	switch len(pending) {
	case 0:
	case 1:
		rep.TornTail = true // the classic killed-mid-append shape
	default:
		rep.CorruptLines = append(rep.CorruptLines, pending[:len(pending)-1]...)
		rep.TornTail = true
	}
	return records, rep, nil
}
