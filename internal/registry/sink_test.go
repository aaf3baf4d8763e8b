package registry

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// sinkMatrix is the small grid the pipeline tests stream: 4 cells, 8 trials.
func sinkMatrix() Matrix {
	return Matrix{
		Algorithms:  []string{"core", "benor"},
		Adversaries: []string{"full"},
		Schedulers:  []string{"adversary"},
		Sizes:       []Size{{N: 12, T: 1}},
		Inputs:      []string{"split", "ones"},
		Seeds:       []uint64{1, 2},
		MaxWindows:  2000,
	}
}

// memorySink retains every record — the test observer for pipeline order
// and content (production sinks stream to disk instead).
type memorySink struct {
	records []TrialRecord
	flushes int
}

func (s *memorySink) Consume(rec TrialRecord) error {
	s.records = append(s.records, rec)
	return nil
}
func (s *memorySink) Flush() error { s.flushes++; return nil }

// TestRunWithSinkStreamsIndexOrderedRecords: sinks observe one record per
// trial, in index order, carrying exactly the per-trial results the
// aggregate is built from.
func TestRunWithSinkStreamsIndexOrderedRecords(t *testing.T) {
	m := sinkMatrix()
	sink := &memorySink{}
	sweep, err := m.RunWith(RunOptions{Sinks: []ResultSink{sink}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.records) != sweep.TrialCount || sink.flushes != 1 {
		t.Fatalf("sink saw %d records / %d flushes, want %d / 1",
			len(sink.records), sink.flushes, sweep.TrialCount)
	}
	cells, resolved, replaySweep, err := m.expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range sink.records {
		if rec.Index != i {
			t.Fatalf("record %d has index %d", i, rec.Index)
		}
		if want := resolved.specAt(cells, i).key(); rec.Key() != want {
			t.Fatalf("record %d key %q != spec %q", i, rec.Key(), want)
		}
	}
	// Re-aggregating the streamed records reproduces the sweep exactly —
	// the records carry the full result, which is what resume relies on.
	agg := newCellAgg(replaySweep, cells)
	for _, rec := range sink.records {
		agg.consume(rec.Index/len(resolved.Seeds), rec.Result())
	}
	agg.finalize()
	replaySweep.TrialCount = len(sink.records)
	if !reflect.DeepEqual(sweep, replaySweep) {
		t.Fatalf("replayed aggregate diverged:\nrun    %+v\nreplay %+v", sweep, replaySweep)
	}
}

// TestRunWithResumeRejectsMismatch: resume records must match the grid's
// leading trial keys.
func TestRunWithResumeRejectsMismatch(t *testing.T) {
	m := sinkMatrix()
	sink := &memorySink{}
	if _, err := m.RunWith(RunOptions{Sinks: []ResultSink{sink}}); err != nil {
		t.Fatal(err)
	}
	bad := append([]TrialRecord(nil), sink.records[:2]...)
	bad[1].Seed = 99
	if _, err := m.RunWith(RunOptions{Resume: bad}); err == nil ||
		!strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("mismatched resume accepted: %v", err)
	}
	tooMany := make([]TrialRecord, len(sink.records)+1)
	copy(tooMany, sink.records)
	if _, err := m.RunWith(RunOptions{Resume: tooMany}); err == nil {
		t.Fatal("oversized resume accepted")
	}
}

// TestCheckpointRoundTrip: header + records written through the sink
// machinery load back verbatim; wrong grids and torn tails are handled.
func TestCheckpointRoundTrip(t *testing.T) {
	m := sinkMatrix()
	sink := &memorySink{}
	if _, err := m.RunWith(RunOptions{Sinks: []ResultSink{sink}}); err != nil {
		t.Fatal(err)
	}
	grid := m.GridSignature()

	dir := t.TempDir()
	path := dir + "/sweep.ckpt"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpointHeader(f, grid); err != nil {
		t.Fatal(err)
	}
	jl := NewJSONLSink(f)
	for _, rec := range sink.records[:5] {
		if err := jl.Consume(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Torn tail: half a record.
	if _, err := f.WriteString(`{"index":5,"algo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, rep, err := LoadCheckpointRecords(path, grid, trialIndex)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sink.records[:5]) {
		t.Fatalf("round trip diverged: %+v", got)
	}
	if !rep.TornTail {
		t.Fatalf("torn tail not reported: %v", rep)
	}
	if _, _, err := LoadCheckpointRecords(path, "other grid", trialIndex); err == nil {
		t.Fatal("grid mismatch accepted")
	}
	if recs, _, err := LoadCheckpointRecords(dir+"/missing.ckpt", grid, trialIndex); err != nil || recs != nil {
		t.Fatalf("missing checkpoint: %v, %v", recs, err)
	}
}

// trialIndex is a trial record's position, which checkpoint loading
// verifies.
func trialIndex(r TrialRecord) int { return r.Index }
