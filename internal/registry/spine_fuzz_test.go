package registry_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"asyncagree/internal/faultinject"
	"asyncagree/internal/registry"
	"asyncagree/internal/search"
)

// spineSizes are the shapes FuzzSpine draws from: the default sweep's four,
// the search's 16:2, the pinned event feeds' 13:4 and 12:5, 7:2, at
// Bracha's n > 3t edge, and 81:3, where committee elects over two levels
// and sender bitsets take two words. Core rejects 13:4, 12:5 and 7:2, and
// committee every size but 7:2, 27:3 and 81:3.
var spineSizes = []registry.Size{{N: 12, T: 1}, {N: 18, T: 2}, {N: 24, T: 3}, {N: 27, T: 3},
	{N: 16, T: 2}, {N: 13, T: 4}, {N: 12, T: 5}, {N: 7, T: 2}, {N: 81, T: 3}}

// FuzzSpine holds the byte-identity spine on drawn grids: fresh = pooled,
// serial = parallel, interrupted = resumed, rerun = rerun. An input is, in
// order: bitmasks over the registered algorithms, adversaries, schedulers
// and input patterns (registration order; an empty mask means all), an
// index into spineSizes, seeds (1+seeds%5 of them from 1+seeds/5), a
// window budget (1+windows%3000), an interrupt point (1+cut%records),
// bitmasks of the trial indices that panic and that stall, the stall
// window (1+stallWindow), and search. Its bit 0 switches the body to
// search.Run, for the first algorithm and input of the draw with the
// first seed as mutation seed, and its higher bits give the search's
// shape, lowest first: TopK (3 bits, 1+v%5), refinement rounds (2 bits),
// generations (2 bits) and population (3 bits, 1+v). No draw sets a
// wall-clock deadline, which would not be reproducible.
//
// A sweep draw that expands to no trial or to more than 64 is skipped; a
// search runs on a budget of 64 trials. Both run pooled serially, on the
// worker pool, interrupted at the drawn point and resumed from the
// checkpoint file the interrupted run wrote, and again after a GC, and
// the last three must reproduce the serial run's JSONL export (fault
// descriptions cut to their first line) and table. A sweep's clean records
// must also match fresh runs from their own coordinates (Inputs,
// NewSystem, NewScheduledAdversary), and its fault records stand only at
// injected indices or in a cell quarantined after one.
//
// The committed corpus (testdata/fuzz/FuzzSpine) holds the grids of the
// determinism tests this target replaced, each entry named after its
// source (DESIGN.md §4).
func FuzzSpine(f *testing.F) {
	f.Fuzz(func(t *testing.T, algs, advs, scheds, inputs, size, seeds uint8, windows uint16,
		cut uint8, panics, stalls uint64, stallWindow uint8, search uint16) {
		m := registry.Matrix{
			Algorithms:  pick(algs, registry.AlgorithmNames()),
			Adversaries: pick(advs, registry.AdversaryNames()),
			Schedulers:  pick(scheds, registry.SchedulerNames()),
			Inputs:      pick(inputs, registry.InputPatternNames()),
			Sizes:       []registry.Size{spineSizes[int(size)%len(spineSizes)]},
			MaxWindows:  1 + int(windows)%3000,
		}
		for s := range uint64(1 + seeds%5) {
			m.Seeds = append(m.Seeds, 1+uint64(seeds/5)+s)
		}
		plan := func() *faultinject.Plan {
			return &faultinject.Plan{Panic: trialSet(t, panics), Stall: trialSet(t, stalls),
				StallWindow: 1 + int(stallWindow)}
		}
		if search&1 == 1 {
			spineSearch(t, m, cut, plan, search>>1)
		} else {
			spineSweep(t, m, cut, plan)
		}
	})
}

// spineSweep runs a drawn sweep grid.
func spineSweep(t *testing.T, m registry.Matrix, cut uint8, plan func() *faultinject.Plan) {
	total := trials(t, m)
	if total == 0 || total > 64 {
		t.Skipf("the grid expands to %d trials", total)
	}
	export := legs(t, m.GridSignature(), cut,
		func(r registry.TrialRecord) int { return r.Index },
		func(serial bool, sinks []registry.ResultSink, resume []registry.TrialRecord, stop func() bool,
			progress func(int)) (string, error) {
			sweep, err := m.RunWith(registry.RunOptions{Serial: serial, Sinks: sinks, Resume: resume,
				Stop: stop, Progress: func(done, _ int) { progress(done) }, Inject: plan()})
			if err != nil {
				return "", err
			}
			return sweep.Table().String(), nil
		})
	var recs []registry.TrialRecord
	for line := range bytes.Lines(export) {
		var rec registry.TrialRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != total {
		t.Fatalf("the sweep emitted %d records; its grid expands to %d trials", len(recs), total)
	}
	p := plan()
	for i, rec := range recs {
		if rec.Faulted() {
			_, stalled := p.ShouldStall(i)
			quarantined := rec.FaultKind == registry.FaultQuarantined && i%len(m.Seeds) > 0 && recs[i-1].Faulted()
			if !p.ShouldPanic(i) && !stalled && !quarantined {
				t.Fatalf("record %d is a %s fault at an index nothing was injected at: %s",
					i, rec.FaultKind, strings.SplitN(rec.Fault, "\n", 2)[0])
			}
			continue
		}
		inputs, err := registry.Inputs(rec.Input, rec.N, rec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		params := registry.Params{N: rec.N, T: rec.T, Inputs: inputs, Seed: rec.Seed}
		sys, err := registry.NewSystem(rec.Algorithm, params)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := registry.NewScheduledAdversary(rec.Adversary, rec.Scheduler, rec.Algorithm, params)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := sys.RunWindows(adv, m.MaxWindows); err != nil || res != rec.Result() {
			t.Fatalf("record %d (%s) diverged from its fresh run:\npooled %+v\nfresh  %+v (%v)",
				i, rec.Key(), rec.Result(), res, err)
		}
	}
}

// spineSearch runs a drawn search of the given shape.
func spineSearch(t *testing.T, m registry.Matrix, cut uint8, plan func() *faultinject.Plan, shape uint16) {
	rounds := func(bits uint16) int {
		if bits == 0 {
			return -1 // none: 0 would select the default
		}
		return int(bits)
	}
	o := search.Options{
		Algorithm: m.Algorithms[0], Sizes: m.Sizes, Input: m.Inputs[0],
		Adversaries: m.Adversaries, Schedulers: m.Schedulers,
		TrialsPerCandidate: len(m.Seeds), MaxWindows: m.MaxWindows, Budget: 64, Seed: m.Seeds[0],
		TopK: 1 + int(shape&7)%5, Refinements: rounds(shape >> 3 & 3),
		Generations: rounds(shape >> 5 & 3), Population: 1 + int(shape>>7&7),
	}
	legs(t, o.Signature(), cut,
		func(r search.EvalRecord) int { return r.Index },
		func(serial bool, sinks []search.Sink, resume []search.EvalRecord, stop func() bool,
			progress func(int)) (string, error) {
			rep, err := search.Run(o, search.RunOptions{Serial: serial, Sinks: sinks, Resume: resume,
				Stop: stop, Progress: func(evals, _ int) { progress(evals) }, Inject: plan()})
			if err != nil {
				return "", err
			}
			return rep.Table().String(), nil
		})
}

// runner executes a drawn grid once on the record pipeline: serially or on
// the worker pool, into sinks, after replaying resume, polling stop and
// reporting each emitted record's count to progress. It returns the
// rendered table.
type runner[R any] func(serial bool, sinks []registry.Sink[R], resume []R, stop func() bool, progress func(int)) (string, error)

// legs runs a drawn grid pooled serially, on the worker pool, interrupted
// at the drawn point and resumed from a checkpoint file written with
// WriteCheckpointHeader and read with LoadCheckpointRecords, and again
// after a GC, and holds every run to the serial one's export and table. It
// returns the serial run's export.
func legs[R registry.Record](t *testing.T, sig string, cut uint8, index func(R) int, run runner[R]) []byte {
	t.Helper()
	var (
		serial   bytes.Buffer
		emitted  atomic.Int64
		progress = func(n int) { emitted.Store(int64(n)) }
		exportTo = func(b *bytes.Buffer) []registry.Sink[R] { return []registry.Sink[R]{registry.NewJSONLSinkOf[R](b)} }
	)
	table, err := run(true, exportTo(&serial), nil, nil, progress)
	if err != nil {
		t.Fatalf("pooled serial: %v", err)
	}
	want := firstLines(serial.Bytes())
	// pooled runs the grid on the worker pool after replaying resume,
	// appending its export to b, and holds b and its table to the serial
	// run's.
	pooled := func(leg string, b *bytes.Buffer, resume []R) {
		t.Helper()
		gotTable, err := run(false, exportTo(b), resume, nil, progress)
		if err != nil {
			t.Fatalf("%s: %v", leg, err)
		}
		got := firstLines(b.Bytes())
		for i := range max(len(want), len(got)) {
			if i >= len(want) || i >= len(got) || got[i] != want[i] {
				t.Fatalf("%s: the export diverges from the pooled serial run's at record %d of %d (serial %d):\n%s\nserial:\n%s",
					leg, i, len(got), len(want), lineAt(got, i), lineAt(want, i))
			}
		}
		if gotTable != table {
			t.Fatalf("%s: the table diverged from the pooled serial run's:\n%s\nserial:\n%s", leg, gotTable, table)
		}
	}

	pooled("pooled parallel", &bytes.Buffer{}, nil)

	if len(want) > 0 {
		at := 1 + int(cut)%len(want)
		path := filepath.Join(t.TempDir(), "spine.ckpt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := registry.WriteCheckpointHeader(f, sig); err != nil {
			t.Fatal(err)
		}
		var resumed bytes.Buffer
		emitted.Store(0)
		_, err = run(false, append(exportTo(&resumed), registry.NewJSONLSinkOf[R](f)), nil,
			func() bool { return emitted.Load() >= int64(at) }, progress)
		f.Close()
		if !errors.Is(err, registry.ErrInterrupted) {
			t.Fatalf("interrupted after %d records: %v, want ErrInterrupted", at, err)
		}
		prefix, salvage, err := registry.LoadCheckpointRecords(path, sig, index)
		if err != nil || !salvage.Empty() || len(prefix) != at {
			t.Fatalf("the checkpoint of a run interrupted after %d records loads %d of them (%v, %v)",
				at, len(prefix), salvage, err)
		}
		pooled("interrupted and resumed", &resumed, prefix)
	}

	runtime.GC()
	pooled("pooled after a GC", &bytes.Buffer{}, nil)
	return serial.Bytes()
}

// trials counts the trials m expands to by Matrix's rule: none for a size
// the algorithm's Validate rejects or a triple Pair leaves unpaired.
func trials(t *testing.T, m registry.Matrix) int {
	cells := 0
	for _, name := range m.Algorithms {
		alg, err := registry.LookupAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		if alg.Validate(registry.Params{N: m.Sizes[0].N, T: m.Sizes[0].T}) != nil {
			continue
		}
		for _, adv := range m.Adversaries {
			for _, sched := range m.Schedulers {
				promise, _, err := registry.Pair(name, adv, sched)
				if err != nil {
					t.Fatal(err)
				}
				if promise != registry.Unpaired {
					cells++
				}
			}
		}
	}
	return cells * len(m.Inputs) * len(m.Seeds)
}

// pick returns the names whose bit is set in mask, or all of them for an
// empty mask.
func pick(mask uint8, names []string) []string {
	var out []string
	for i, name := range names {
		if mask>>i&1 == 1 {
			out = append(out, name)
		}
	}
	if out == nil {
		return names
	}
	return out
}

// trialSet is the set of the indices whose bit is set in bits.
func trialSet(t *testing.T, bits uint64) *faultinject.TrialSet {
	var idx []string
	for i := range 64 {
		if bits>>i&1 == 1 {
			idx = append(idx, strconv.Itoa(i))
		}
	}
	set, err := faultinject.ParseTrialSet(strings.Join(idx, ","))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// firstLines splits a JSONL export into its records, each fault
// description cut to its first line as CI's chaos smoke cuts it: a panic's
// stack names goroutines and frame addresses that differ from run to run.
func firstLines(export []byte) []string {
	var out []string
	for line := range bytes.Lines(export) {
		if i := bytes.Index(line, []byte(`\n`)); i >= 0 {
			line = append(line[:i:i], "\"}\n"...)
		}
		out = append(out, string(line))
	}
	return out
}

// lineAt is lines[i], or a note that there is none.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(no record)"
}
