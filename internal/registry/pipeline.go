package registry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"asyncagree/internal/parallel"
)

// Record is what the result pipeline streams: a completed unit of work (a
// sweep trial, a search evaluation) with a stable identity. Key is what a
// resumed run re-verifies its checkpointed prefix against.
type Record interface {
	// Key renders the record's stable identity, independent of its outcome.
	Key() string
}

// Sink consumes completed records in strictly increasing index order. The
// pipeline calls Consume on the serial emission path (never concurrently)
// and Flush exactly once at the end of the run — including interrupted and
// failed runs, so everything consumed is durable.
type Sink[R any] interface {
	// Consume accepts the next completed record; an error drops the sink
	// from the run (reported, not fatal).
	Consume(R) error
	// Flush makes everything consumed durable.
	Flush() error
}

// sinkNamer is how a sink tells the pipeline's degradation reports what to
// call it.
type sinkNamer interface{ sinkName() string }

// Named attaches a human-readable name (typically the output path) to a
// sink so the pipeline's degradation reports can say which sink was dropped.
type Named[R any] struct {
	// Name identifies the sink in failure reports, e.g. its file path.
	Name string
	Sink[R]
}

func (n Named[R]) sinkName() string { return n.Name }

// sinkLabel names a sink for degradation reports.
func sinkLabel[R any](i int, s Sink[R]) string {
	if n, ok := s.(sinkNamer); ok {
		return n.sinkName()
	}
	return fmt.Sprintf("sink %d", i)
}

// JSONLSink streams records as one JSON object per line — the machine-
// readable export and the checkpoint body format of every record type.
type JSONLSink[R any] struct {
	w *bufio.Writer
}

// NewJSONLSinkOf wraps w in a buffered JSONL writer of R records.
func NewJSONLSinkOf[R any](w io.Writer) *JSONLSink[R] {
	return &JSONLSink[R]{w: bufio.NewWriter(w)}
}

// Consume implements Sink.
func (s *JSONLSink[R]) Consume(rec R) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = s.w.Write(b)
	return err
}

// Flush implements Sink.
func (s *JSONLSink[R]) Flush() error { return s.w.Flush() }

// ErrInterrupted is returned by a pipeline run (Matrix.RunWith, search.Run)
// when its Stop hook requested a clean stop: everything emitted so far is a
// consistent index-order prefix (already flushed through the sinks), and a
// resumed run completes the rest with output identical to an uninterrupted
// one.
var ErrInterrupted = errors.New("registry: run interrupted")

// Pipeline is the index-ordered record stream every resumable driver runs
// on: records execute across the worker pool (or serially), are delivered
// in strictly increasing index order to the driver's fold and then to the
// sinks, and a checkpointed prefix replays through the fold instead of
// re-executing. The pipeline owns stop polling, resume-prefix verification,
// sink fan-out with degrade-and-report, and the final flush; a driver
// supplies only what to execute and how to fold (the sweep's cell
// aggregates and quarantine, the search's frontier and budget). Set the
// exported fields, call Run once per batch, then Flush.
type Pipeline[R Record] struct {
	// Unit names one record in reports ("trial", "eval").
	Unit string
	// Sinks receive every live record in index order, then a final Flush.
	// Replayed Resume records do not re-enter the sinks — their bytes are
	// already in the sink outputs of the interrupted run.
	Sinks []Sink[R]
	// Resume holds the completed prefix of an earlier interrupted run; each
	// record is re-verified against the key the run expects at its index
	// and flows through the fold (not the sinks) instead of re-executing.
	Resume []R
	// Stop is polled before each record starts and again after each is
	// emitted; returning true stops the run cleanly with ErrInterrupted
	// once in-flight records drain. The emission-path poll is what makes
	// completed-count stop conditions fire deterministically: the
	// claim-time poll alone can lag a reorder window behind.
	Stop func() bool
	// Serial runs a plain loop instead of the worker pool (byte-identical
	// output).
	Serial bool

	next     int      // index of the next batch's first record
	dropped  []bool   // per sink: dropped after a failed Consume or Flush
	failures []string // degradation reports, in the order they happened
}

// Run streams the next n records, indices [base, base+n) continuing from the
// previous batch. key(i) is the key a resumed record at index i must carry;
// execute(i) produces live record i on a worker; fold(i, rec) runs on the
// serial emission path, folds rec into the driver's state, and returns the
// record the sinks see (the sweep rewrites the records of a quarantined
// cell there).
func (p *Pipeline[R]) Run(n int, key func(i int) string, execute func(i int) R, fold func(i int, rec R) R) error {
	base := p.next
	p.next += n
	if p.dropped == nil {
		p.dropped = make([]bool, len(p.Sinks))
	}
	fn := func(j int) (rec R, err error) {
		if p.Stop != nil && p.Stop() {
			return rec, ErrInterrupted
		}
		i := base + j
		if i >= len(p.Resume) {
			return execute(i), nil
		}
		rec = p.Resume[i]
		if got, want := rec.Key(), key(i); got != want {
			return rec, fmt.Errorf("registry: checkpoint %s %d is %q, this run expects %q (was the grid or an option changed?)",
				p.Unit, i, got, want)
		}
		return rec, nil
	}
	emit := func(j int, rec R) error {
		i := base + j
		rec = fold(i, rec)
		if i >= len(p.Resume) {
			for si, sink := range p.Sinks {
				if p.dropped[si] {
					continue
				}
				if err := sink.Consume(rec); err != nil {
					// Degrade, don't abort: the run and its aggregates are
					// unaffected by a lost export; the drop is reported and
					// the caller turns it into a non-zero exit.
					p.dropped[si] = true
					p.failures = append(p.failures,
						fmt.Sprintf("%s: dropped at %s %d: %v", sinkLabel(si, sink), p.Unit, i, err))
				}
			}
		}
		if p.Stop != nil && p.Stop() {
			return ErrInterrupted
		}
		return nil
	}
	if !p.Serial {
		return parallel.Stream(n, fn, emit)
	}
	for j := 0; j < n; j++ {
		rec, err := fn(j)
		if err != nil {
			return err
		}
		if err := emit(j, rec); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes every sink and returns the run's degradation reports: sinks
// dropped mid-run plus sinks whose final flush failed. Call it exactly once,
// also after a failed or interrupted Run: everything emitted is a consistent
// prefix and must reach disk for resume. Dropped sinks are still flushed
// best-effort (earlier durable bytes may be buffered below the failure) with
// the error already reported.
func (p *Pipeline[R]) Flush() []string {
	for si, sink := range p.Sinks {
		if err := sink.Flush(); err != nil && (p.dropped == nil || !p.dropped[si]) {
			p.failures = append(p.failures,
				fmt.Sprintf("%s: final flush failed: %v", sinkLabel(si, sink), err))
		}
	}
	return p.failures
}
