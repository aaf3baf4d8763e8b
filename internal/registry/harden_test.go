package registry

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asyncagree/internal/faultinject"
)

// hardenMatrix is a one-cell grid with enough seeds that quarantine (3
// consecutive faults by default) can fire with trials left to skip.
func hardenMatrix() Matrix {
	return Matrix{
		Algorithms:  []string{"benor"},
		Adversaries: []string{"full"},
		Schedulers:  []string{"adversary"},
		Sizes:       []Size{{N: 12, T: 1}},
		Inputs:      []string{"split"},
		Seeds:       []uint64{1, 2, 3, 4, 5},
		MaxWindows:  2000,
	}
}

func mustTrialSet(t *testing.T, s string) *faultinject.TrialSet {
	t.Helper()
	set, err := faultinject.ParseTrialSet(s)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestInjectedPanicIsolated: a panicking trial becomes a FaultPanic record
// carrying the stack, the sweep completes, and every non-faulted trial's
// record is byte-identical to the clean run's.
func TestInjectedPanicIsolated(t *testing.T) {
	m := sinkMatrix()
	clean := &memorySink{}
	cleanSweep, err := m.RunWith(RunOptions{Sinks: []ResultSink{clean}})
	if err != nil {
		t.Fatal(err)
	}

	faulty := &memorySink{}
	sweep, err := m.RunWith(RunOptions{
		Sinks:  []ResultSink{faulty},
		Inject: &faultinject.Plan{Panic: mustTrialSet(t, "1,5")},
	})
	if err != nil {
		t.Fatalf("injected sweep aborted: %v", err)
	}
	if sweep.Faulted != 2 || len(sweep.Quarantined) != 0 {
		t.Fatalf("Faulted = %d, Quarantined = %v", sweep.Faulted, sweep.Quarantined)
	}
	if len(faulty.records) != len(clean.records) {
		t.Fatalf("injected run emitted %d records, clean %d", len(faulty.records), len(clean.records))
	}
	for i, rec := range faulty.records {
		if i == 1 || i == 5 {
			if rec.FaultKind != FaultPanic {
				t.Fatalf("record %d kind %q, want panic", i, rec.FaultKind)
			}
			if !strings.Contains(rec.Fault, "injected panic") || !strings.Contains(rec.Fault, "goroutine") {
				t.Fatalf("record %d fault missing panic value or stack: %q", i, firstLine(rec.Fault))
			}
			if rec.Key() != clean.records[i].Key() {
				t.Fatalf("record %d key %q != clean %q", i, rec.Key(), clean.records[i].Key())
			}
			continue
		}
		if !reflect.DeepEqual(rec, clean.records[i]) {
			t.Fatalf("clean record %d diverged under injection:\nclean %+v\ngot   %+v", i, clean.records[i], rec)
		}
	}
	// Aggregates cover exactly the clean trials.
	trials := 0
	for _, c := range sweep.Cells {
		trials += c.Trials
	}
	if trials != sweep.TrialCount-2 {
		t.Fatalf("aggregated %d trials, want %d", trials, sweep.TrialCount-2)
	}

	// The pool absorbed no poisoned engine: a clean sweep after the chaos
	// one still reproduces the reference output exactly.
	after := &memorySink{}
	afterSweep, err := m.RunWith(RunOptions{Sinks: []ResultSink{after}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.records, clean.records) || !reflect.DeepEqual(afterSweep, cleanSweep) {
		t.Fatal("clean sweep after injected panics diverged: a poisoned engine leaked into the pool")
	}
}

// normalizeFaults truncates fault descriptions to their deterministic first
// line: panic records carry goroutine stacks whose frame addresses differ
// between runs (and between the serial loop and a worker goroutine), so
// byte-identity claims cover clean records in full and fault records up to
// their first line.
func normalizeFaults(recs []TrialRecord) []TrialRecord {
	out := append([]TrialRecord(nil), recs...)
	for i := range out {
		out[i].Fault = firstLine(out[i].Fault)
	}
	return out
}

// TestInjectedFaultsSerialParallelIdentical: with a deterministic fault
// plan, the serial loop and the worker pool emit identical record streams —
// fault records included (up to the stack text, which names the goroutine).
func TestInjectedFaultsSerialParallelIdentical(t *testing.T) {
	m := sinkMatrix()
	plan := func() *faultinject.Plan {
		return &faultinject.Plan{
			Panic: mustTrialSet(t, "2"),
			Stall: mustTrialSet(t, "rand:2@7"),
			// Stall after the first window so most selected trials actually
			// fault (fast-deciding ones stay clean — on both paths alike).
			StallWindow: 1,
		}
	}
	ser, par := &memorySink{}, &memorySink{}
	serSweep, err := m.RunWith(RunOptions{Serial: true, Sinks: []ResultSink{ser}, Inject: plan()})
	if err != nil {
		t.Fatal(err)
	}
	parSweep, err := m.RunWith(RunOptions{Sinks: []ResultSink{par}, Inject: plan()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeFaults(ser.records), normalizeFaults(par.records)) {
		t.Fatal("serial and parallel record streams diverged under injection")
	}
	if !reflect.DeepEqual(serSweep, parSweep) {
		t.Fatalf("sweeps diverged:\nserial   %+v\nparallel %+v", serSweep, parSweep)
	}
}

// TestQuarantineAfterConsecutiveFaults: three consecutive faults quarantine
// the cell; its remaining trials are skipped with FaultQuarantined records
// and the sweep reports the cell, serial and parallel alike.
func TestQuarantineAfterConsecutiveFaults(t *testing.T) {
	m := hardenMatrix()
	for _, serial := range []bool{true, false} {
		sink := &memorySink{}
		sweep, err := m.RunWith(RunOptions{
			Serial: serial,
			Sinks:  []ResultSink{sink},
			Inject: &faultinject.Plan{Panic: mustTrialSet(t, "0-2")},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(sweep.Quarantined) != 1 || !strings.Contains(sweep.Quarantined[0], "quarantined after 3 consecutive faults") {
			t.Fatalf("serial=%v: Quarantined = %v", serial, sweep.Quarantined)
		}
		if sweep.Faulted != 5 {
			t.Fatalf("serial=%v: Faulted = %d, want all 5", serial, sweep.Faulted)
		}
		for i, rec := range sink.records {
			want := FaultPanic
			if i >= 3 {
				want = FaultQuarantined
			}
			if rec.FaultKind != want {
				t.Fatalf("serial=%v: record %d kind %q, want %q", serial, i, rec.FaultKind, want)
			}
		}
		if sweep.Cells[0].Trials != 0 {
			t.Fatalf("serial=%v: quarantined cell aggregated %d trials", serial, sweep.Cells[0].Trials)
		}
	}
}

// TestQuarantineNeedsConsecutiveFaults: a clean trial resets the counter,
// so scattered faults never quarantine.
func TestQuarantineNeedsConsecutiveFaults(t *testing.T) {
	m := hardenMatrix()
	sweep, err := m.RunWith(RunOptions{
		Inject: &faultinject.Plan{Panic: mustTrialSet(t, "0,1,3,4")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Quarantined) != 0 {
		t.Fatalf("non-consecutive faults quarantined: %v", sweep.Quarantined)
	}
	if sweep.Faulted != 4 || sweep.Cells[0].Trials != 1 {
		t.Fatalf("Faulted = %d, aggregated = %d", sweep.Faulted, sweep.Cells[0].Trials)
	}
}

// TestInjectedStallBecomesDeadlineRecord: a stalled trial is stopped at the
// injected window and recorded as a FaultDeadline outcome with the partial
// window count — deterministically, no wall clock involved.
func TestInjectedStallBecomesDeadlineRecord(t *testing.T) {
	m := sinkMatrix()
	clean := &memorySink{}
	if _, err := m.RunWith(RunOptions{Sinks: []ResultSink{clean}}); err != nil {
		t.Fatal(err)
	}
	// Stall a trial that demonstrably runs past window 1, at window 1: the
	// injected stall must interrupt a trial that would have kept going.
	target := -1
	for i, rec := range clean.records {
		if rec.Windows >= 2 {
			target = i
			break
		}
	}
	if target < 0 {
		t.Skip("no trial runs long enough to stall")
	}
	sink := &memorySink{}
	sweep, err := m.RunWith(RunOptions{
		Sinks:  []ResultSink{sink},
		Inject: &faultinject.Plan{Stall: mustTrialSet(t, fmt.Sprint(target)), StallWindow: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := sink.records[target]
	if rec.FaultKind != FaultDeadline || !strings.Contains(rec.Fault, "injected stall") {
		t.Fatalf("record %d = %q / %q", target, rec.FaultKind, firstLine(rec.Fault))
	}
	if rec.Windows != 1 {
		t.Fatalf("stalled after %d windows, want 1", rec.Windows)
	}
	if sweep.Faulted != 1 {
		t.Fatalf("Faulted = %d", sweep.Faulted)
	}
}

// TestTrialDeadlineConvertsRunaways: an absurdly small wall-clock deadline
// turns every trial into a recorded FaultDeadline outcome — the sweep
// completes instead of hanging.
func TestTrialDeadlineConvertsRunaways(t *testing.T) {
	m := hardenMatrix()
	sink := &memorySink{}
	sweep, err := m.RunWith(RunOptions{
		Sinks:           []ResultSink{sink},
		TrialDeadline:   time.Nanosecond,
		QuarantineAfter: -1, // every trial must fault on its own
	})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Faulted != sweep.TrialCount {
		t.Fatalf("Faulted = %d of %d", sweep.Faulted, sweep.TrialCount)
	}
	for i, rec := range sink.records {
		if rec.FaultKind != FaultDeadline || !strings.Contains(rec.Fault, "deadline") {
			t.Fatalf("record %d = %q / %q", i, rec.FaultKind, firstLine(rec.Fault))
		}
	}
}

// failAtSink fails exactly one Consume call, then would work again — but a
// dropped sink must never be handed another record.
type failAtSink struct {
	memorySink
	failAt int
}

func (s *failAtSink) Consume(rec TrialRecord) error {
	if rec.Index == s.failAt {
		return errors.New("disk full")
	}
	return s.memorySink.Consume(rec)
}

// TestSinkFailureDegrades: an unrecoverable sink write drops that sink,
// reports it, and leaves the sweep, its aggregates, and its sibling sinks
// untouched.
func TestSinkFailureDegrades(t *testing.T) {
	m := sinkMatrix()
	want, err := m.RunWith(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	bad := &failAtSink{failAt: 3}
	good := &memorySink{}
	sweep, err := m.RunWith(RunOptions{Sinks: []ResultSink{NamedSink{Name: "bad.jsonl", Sink: bad}, good}})
	if err != nil {
		t.Fatalf("sink failure aborted the sweep: %v", err)
	}
	if len(sweep.SinkFailures) != 1 ||
		!strings.Contains(sweep.SinkFailures[0], "bad.jsonl") ||
		!strings.Contains(sweep.SinkFailures[0], "disk full") {
		t.Fatalf("SinkFailures = %v", sweep.SinkFailures)
	}
	if sweep.Healthy() {
		t.Fatal("sweep with a dropped sink reported healthy")
	}
	if len(bad.records) != 3 {
		t.Fatalf("dropped sink consumed %d records after its failure", len(bad.records)-3)
	}
	if len(good.records) != sweep.TrialCount {
		t.Fatalf("sibling sink lost records: %d of %d", len(good.records), sweep.TrialCount)
	}
	if !reflect.DeepEqual(sweep.Cells, want.Cells) {
		t.Fatal("aggregates diverged under sink failure")
	}
}

// TestResumeRebuildsQuarantine is the crash-recovery property for the
// hardened pipeline: interrupting an injected sweep and resuming it (same
// plan) replays the checkpointed fault records, rebuilds the quarantine
// counters, and finishes with exactly the uninterrupted run's records.
func TestResumeRebuildsQuarantine(t *testing.T) {
	m := hardenMatrix()
	plan := func() *faultinject.Plan {
		return &faultinject.Plan{Panic: mustTrialSet(t, "0-2")}
	}
	full := &memorySink{}
	want, err := m.RunWith(RunOptions{Sinks: []ResultSink{full}, Inject: plan()})
	if err != nil {
		t.Fatal(err)
	}

	part := &memorySink{}
	var emitted atomic.Int64
	_, err = m.RunWith(RunOptions{
		Sinks:    []ResultSink{part},
		Inject:   plan(),
		Progress: func(done, total int) { emitted.Store(int64(done)) },
		Stop:     func() bool { return emitted.Load() >= 4 },
	})
	if err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(part.records) < 4 || len(part.records) >= len(full.records) {
		t.Fatalf("interrupted run emitted %d records", len(part.records))
	}

	rest := &memorySink{}
	got, err := m.RunWith(RunOptions{Sinks: []ResultSink{rest}, Resume: part.records, Inject: plan()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed sweep diverged:\nfull    %+v\nresumed %+v", want, got)
	}
	stitched := append(append([]TrialRecord(nil), part.records...), rest.records...)
	if !reflect.DeepEqual(normalizeFaults(stitched), normalizeFaults(full.records)) {
		t.Fatal("interrupted + resumed records != uninterrupted records")
	}
}

// TestCheckpointSalvage covers the damage classes LoadCheckpointSalvage
// recovers from — and the one it must refuse.
func TestCheckpointSalvage(t *testing.T) {
	m := sinkMatrix()
	sink := &memorySink{}
	if _, err := m.RunWith(RunOptions{Sinks: []ResultSink{sink}}); err != nil {
		t.Fatal(err)
	}
	grid := m.GridSignature()
	dir := t.TempDir()

	write := func(t *testing.T, name string, lines []string) string {
		t.Helper()
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	recLine := func(t *testing.T, i int) string {
		t.Helper()
		var b strings.Builder
		jl := NewJSONLSink(&b)
		if err := jl.Consume(sink.records[i]); err != nil {
			t.Fatal(err)
		}
		jl.Flush()
		return strings.TrimSuffix(b.String(), "\n")
	}
	var hdr strings.Builder
	if err := WriteCheckpointHeader(&hdr, grid); err != nil {
		t.Fatal(err)
	}
	header := strings.TrimSuffix(hdr.String(), "\n")

	t.Run("garbage insertion is skipped and reverified", func(t *testing.T) {
		path := write(t, "insert.ckpt", []string{
			header, recLine(t, 0), recLine(t, 1), `<<<flipped bits>>>`, recLine(t, 2), recLine(t, 3),
		})
		recs, rep, err := LoadCheckpointSalvage(path, grid)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recs, sink.records[:4]) {
			t.Fatalf("salvaged %d records, want the full 4", len(recs))
		}
		if len(rep.CorruptLines) != 1 || rep.CorruptLines[0] != 4 || rep.TornTail || rep.DroppedAfterGap != 0 {
			t.Fatalf("report = %+v", rep)
		}
		if !strings.Contains(rep.String(), "skipped 1 corrupt record") {
			t.Fatalf("report renders as %q", rep)
		}
	})

	t.Run("lost record ends the prefix at the gap", func(t *testing.T) {
		// The line holding record 2 was overwritten: record 3 cannot be
		// re-verified against the prefix, so everything from the corruption
		// on is dropped.
		path := write(t, "lost.ckpt", []string{
			header, recLine(t, 0), recLine(t, 1), `<<<was record 2>>>`, recLine(t, 3), recLine(t, 4),
		})
		recs, rep, err := LoadCheckpointSalvage(path, grid)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recs, sink.records[:2]) {
			t.Fatalf("salvaged %d records, want 2", len(recs))
		}
		if rep.DroppedAfterGap != 3 || len(rep.CorruptLines) != 0 {
			t.Fatalf("report = %+v", rep)
		}
	})

	t.Run("torn tail after a mid-file skip", func(t *testing.T) {
		path := write(t, "both.ckpt", []string{
			header, recLine(t, 0), `garbage`, recLine(t, 1), `{"index":2,"algo`,
		})
		recs, rep, err := LoadCheckpointSalvage(path, grid)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || !rep.TornTail || len(rep.CorruptLines) != 1 {
			t.Fatalf("records = %d, report = %+v", len(recs), rep)
		}
	})

	t.Run("truncated header is refused", func(t *testing.T) {
		path := write(t, "hdr.ckpt", []string{header[:len(header)/2]})
		if _, _, err := LoadCheckpointSalvage(path, grid); err == nil ||
			!strings.Contains(err.Error(), "bad checkpoint header") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("grid mismatch is refused", func(t *testing.T) {
		path := write(t, "grid.ckpt", []string{header, recLine(t, 0)})
		if _, _, err := LoadCheckpointSalvage(path, "some other grid"); err == nil ||
			!strings.Contains(err.Error(), "grid") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("clean non-contiguous file is still an error", func(t *testing.T) {
		path := write(t, "skip.ckpt", []string{header, recLine(t, 0), recLine(t, 2)})
		if _, _, err := LoadCheckpointSalvage(path, grid); err == nil ||
			!strings.Contains(err.Error(), "contiguous") {
			t.Fatalf("err = %v", err)
		}
	})
}
