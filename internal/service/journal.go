package service

import (
	"io"
	"os"

	"asyncagree/internal/registry"
	"asyncagree/internal/resumable"
	"asyncagree/internal/retry"
)

// The instance journal is the daemon's only durable state: an append-only
// JSONL file in the checkpoint salvage format (header line + index-ordered
// records), reusing the sweep pipeline's torn-tail/corrupt-line recovery
// wholesale. Every instance create and every successful instance run is one
// record; replaying the verified prefix reconstructs the exact instance map
// — state is a pure function of the journal, so a SIGKILLed daemon restarts
// into precisely what its journal proves happened.
//
// Appends flush to the OS on every record (the page cache survives a killed
// process; only a machine crash can lose the tail, and the salvage loader
// handles exactly that shape). A failed append latches the journal into
// degraded mode: in-memory serving continues, /readyz reports degraded, and
// the failing record's caller gets a 500.

// journalGrid is the header signature; a journal written for anything else
// is refused at startup instead of mis-replayed.
const journalGrid = "agreed-instance-journal"

// journalRecord is one journal line: a global contiguous index (what the
// salvage loader re-verifies) plus exactly one of a create or a run body.
type journalRecord struct {
	Index    int    `json:"index"`
	Instance string `json:"instance"`
	// Create records instance creation with its full (normalized) scenario.
	Create *Scenario `json:"create,omitempty"`
	// Run records one successful run of the instance.
	Run *runRecord `json:"run,omitempty"`
}

// journal is the open append side. Appends happen under Server.mu (the same
// critical section that mutates the instance map), so the journal needs no
// lock of its own and records can never interleave out of index order.
type journal struct {
	f    *os.File
	sink registry.Sink[journalRecord]
	next int   // next record index
	err  error // first append failure; latches degraded mode
}

// openJournal loads the journal at path (salvaging whatever a previous
// crash left), rewrites the healed prefix atomically, and reopens for
// append — the same opener the sweep and search checkpoints use. It returns
// the replayable records and the salvage report.
func openJournal(path string) (*journal, []journalRecord, *registry.SalvageReport, error) {
	recs, salvage, err := registry.LoadCheckpointRecords[journalRecord](
		path, journalGrid, func(r journalRecord) int { return r.Index })
	if err != nil {
		return nil, nil, nil, err
	}
	jsonl := func(w io.Writer, _ bool) registry.Sink[journalRecord] {
		return registry.NewJSONLSinkOf[journalRecord](w)
	}
	sink, f, err := resumable.OpenLog(path, journalGrid, recs, jsonl, retry.Policy{}, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return &journal{f: f, sink: sink, next: len(recs)}, recs, salvage, nil
}

// Err reports the latched append failure, if any.
func (j *journal) Err() error { return j.err }

// append assigns the next index, writes the record, and flushes it to the
// OS. The first failure latches: later appends fail fast with the same
// error rather than writing past a hole.
func (j *journal) append(rec journalRecord) error {
	if j.err != nil {
		return j.err
	}
	rec.Index = j.next
	if j.err = j.sink.Consume(rec); j.err == nil {
		j.err = j.sink.Flush()
	}
	if j.err == nil {
		j.next++
	}
	return j.err
}

// Close flushes and closes the file.
func (j *journal) Close() error {
	if j.f == nil {
		return nil
	}
	ferr := j.sink.Flush()
	cerr := j.f.Close()
	j.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}

// appendJournalLocked journals one record if persistence is configured.
// Callers hold s.mu, which serializes index assignment with the instance
// mutation the record describes — the journal can never record a state the
// map did not reach, or in a different order.
func (s *Server) appendJournalLocked(rec journalRecord) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.append(rec)
}
