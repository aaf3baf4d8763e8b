package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// batchSpec is one closed batch workload: a sweep grid run pass after pass,
// each pass on fresh trial seeds, through the sinks cmd/sweep -out uses.
type batchSpec struct {
	// Matrix holds the axes; Seeds is filled in per pass.
	Matrix Matrix `json:"matrix"`
	// SeedsPerPass is how many trial seeds every cell gets in one pass.
	SeedsPerPass int `json:"seeds_per_pass"`
	// OwnSeeds keeps the trial seeds at the grid's own 1..SeedsPerPass under
	// every workload seed, which then only orders the grid's sizes and
	// inputs: the trials of a pass are the same set, met in another order.
	// For a grid whose work depends on which trials happen never to decide.
	OwnSeeds bool `json:"own_seeds,omitempty"`
	// TrialsPerPass is the trial count of one pass, pinned.
	TrialsPerPass int `json:"trials_per_pass"`
	// Shard2Trials is how many leading trials of the replay are repeated at
	// ShardWorkers 2 for sim.shard2_speedup; 0 skips the comparison.
	Shard2Trials int `json:"shard2_trials,omitempty"`
}

// trialSeedStride separates the trial seeds of consecutive workload seeds.
// Workload seed 1 gives the trial seeds 1..SeedsPerPass, the first of which
// is the first seed of registry.DefaultMatrix.
const trialSeedStride = 1_000_000

// passMatrix is the grid of a pass under workload seed. Every pass of a run
// repeats the same trials, so the passes differ only by what disturbed them.
func (b batchSpec) passMatrix(seed uint64) Matrix {
	m := b.Matrix
	first := (seed-1)*trialSeedStride + 1
	if b.OwnSeeds {
		first = 1
		m.Sizes = shuffled(m.Sizes, splitmix64(seed))
		m.Inputs = shuffled(m.Inputs, splitmix64(seed+trialSeedStride))
	}
	m.Seeds = make([]uint64, b.SeedsPerPass)
	for i := range m.Seeds {
		m.Seeds[i] = first + uint64(i)
	}
	return m
}

// shuffled returns a copy of v in the order state gives it.
func shuffled[T any](v []T, state uint64) []T {
	out := append([]T(nil), v...)
	for k := len(out) - 1; k > 0; k-- {
		state = splitmix64(state)
		j := int(state % uint64(k+1))
		out[k], out[j] = out[j], out[k]
	}
	return out
}

// tapSink is the benchmark's own sink: it keeps the records for the checks
// and the replay.
type tapSink struct{ recs []TrialRecord }

func (t *tapSink) Consume(r TrialRecord) error {
	t.recs = append(t.recs, r)
	return nil
}

func (t *tapSink) Flush() error { return nil }

// timedSink times the calls into a sink of the program (traced runs only).
type timedSink struct {
	inner          ResultSink
	consume, flush time.Duration
}

func (s *timedSink) Consume(r TrialRecord) error {
	start := time.Now()
	err := s.inner.Consume(r)
	s.consume += time.Since(start)
	return err
}

func (s *timedSink) Flush() error {
	start := time.Now()
	err := s.inner.Flush()
	s.flush += time.Since(start)
	return err
}

// sinkSet is the output side of one pass: the JSONL export and the
// checkpoint in a directory of their own, and the tap.
type sinkSet struct {
	dir       string
	out, ckpt *os.File
	timed     []*timedSink // the program's sinks, wrapped, when traced
	tap       *tapSink
	sinks     []ResultSink
}

// setUpPass is the set-up of a batch pass: the sink files, and one window of
// every trial of the pass, which leaves an engine of every scenario in the
// pools (as the warm-up request does for the service), so that the first
// pass does not pay for construction that the later ones are spared.
func setUpPass(root string, m Matrix, traced bool) (*sinkSet, error) {
	warm := m
	warm.MaxWindows = 1
	if _, err := runSweep(warm, nil); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "pass-")
	if err != nil {
		return nil, err
	}
	s := &sinkSet{dir: dir, tap: &tapSink{}}
	if s.out, err = os.Create(filepath.Join(dir, "sweep.jsonl")); err != nil {
		return nil, err
	}
	if s.ckpt, err = os.Create(filepath.Join(dir, "sweep.jsonl.ckpt")); err != nil {
		return nil, err
	}
	ckptSink, err := newCheckpointSink(s.ckpt, m)
	if err != nil {
		return nil, err
	}
	for _, sink := range []ResultSink{newJSONLSink(s.out), ckptSink} {
		if traced {
			ts := &timedSink{inner: sink}
			s.timed = append(s.timed, ts)
			sink = ts
		}
		s.sinks = append(s.sinks, sink)
	}
	s.sinks = append(s.sinks, s.tap)
	return s, nil
}

// finish closes the files, checks that the checkpoint holds the export's
// lines after its header, and removes the directory. It returns the SHA-256
// of the export and the bytes written to both files.
func (s *sinkSet) finish() (digest string, written int64, err error) {
	defer os.RemoveAll(s.dir)
	for _, f := range []*os.File{s.out, s.ckpt} {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return "", 0, err
	}
	out, err := os.ReadFile(s.out.Name())
	if err != nil {
		return "", 0, err
	}
	ckpt, err := os.ReadFile(s.ckpt.Name())
	if err != nil {
		return "", 0, err
	}
	header := bytes.IndexByte(ckpt, '\n') + 1
	if header == 0 || !bytes.Equal(ckpt[header:], out) {
		return "", 0, fmt.Errorf("checkpoint body differs from the JSONL export")
	}
	h := sha256.Sum256(out)
	return hex.EncodeToString(h[:]), int64(len(out) + len(ckpt)), nil
}

// passResult is one pass of a batch workload.
type passResult struct {
	setup, wall time.Duration
	recs        []TrialRecord
	digest      string
	written     int64
	sinkConsume time.Duration // traced only
	sinkFlush   time.Duration // traced only
	mem         memUse        // traced only
	windows     int
	failed      int
	problems    []string
}

// runPass sets a pass up, runs it and checks it. A traced pass (spans not
// nil) has its sinks timed and the runtime's allocation work measured around
// the sweep.
func runPass(root string, spec batchSpec, m Matrix, spans *spanLog) (passResult, error) {
	var p passResult
	traced := spans != nil
	setupStart := time.Now()
	sinks, err := setUpPass(root, m, traced)
	if err != nil {
		return p, err
	}
	p.setup = time.Since(setupStart)

	var probe *memProbe
	if traced {
		probe = startMemProbe()
	}
	start := time.Now()
	sweep, err := runSweep(m, sinks.sinks)
	p.wall = time.Since(start)
	if traced {
		p.mem = probe.finish()
		spans.add("registry.sweep", "pass", "", start, start.Add(p.wall))
	}
	if err != nil {
		sinks.finish()
		return p, err
	}
	p.recs = sinks.tap.recs
	for _, ts := range sinks.timed {
		p.sinkConsume += ts.consume
		p.sinkFlush += ts.flush
	}
	if p.digest, p.written, err = sinks.finish(); err != nil {
		p.problems = append(p.problems, err.Error())
	}

	if !sweep.Healthy() {
		p.problems = append(p.problems, fmt.Sprintf("sweep unhealthy: %d faulted, %d quarantined, %d sink failures",
			sweep.Faulted, len(sweep.Quarantined), len(sweep.SinkFailures)))
	}
	violations := sweep.SafetyViolations()
	if violations != 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d safety violations", violations))
	}
	p.failed = sweep.Faulted + violations
	if sweep.TrialCount != spec.TrialsPerPass || len(p.recs) != spec.TrialsPerPass {
		p.problems = append(p.problems, fmt.Sprintf("pass ran %d trials and emitted %d, want %d",
			sweep.TrialCount, len(p.recs), spec.TrialsPerPass))
	}
	for _, r := range p.recs {
		p.windows += r.Windows
	}
	return p, nil
}

// setupShare is the part of a batch run that goes into set-ups: before every
// pass the workload sets a pass up and tears it down again until that much of
// the time so far went into set-ups. setup_s is then the fastest of dozens of
// set-ups spread over the run, even where one takes 50 ms and five passes fit,
// and a quarter of a minute in which the box is slow does not set it.
const setupShare = 0.1

// runBatch runs a batch workload for about the given time and returns its
// metrics: the end-to-end ones from an untraced run, the per-layer ones from
// a traced run.
func runBatch(name string, spec batchSpec, o runOpts) (*outcome, error) {
	out := newOutcome()
	enginesBefore := engineCountsNow()
	run := runBatchUntraced
	if o.traced {
		run = runBatchTraced
	}
	first, err := run(spec, o, out)
	if err != nil {
		return nil, err
	}
	out.set("setup_s", sortedCopy(out.setups)[0])
	if g, ok := o.golden.Batch[name]; ok && g.Seed == o.seed {
		if first.digest != g.SHA256 {
			out.problem("the pass's records hash to %s, golden.json pins %s", first.digest, g.SHA256)
		}
		if first.windows != g.Windows {
			out.problem("the pass ran %d windows, golden.json pins %d", first.windows, g.Windows)
		}
	}
	out.batch = &batchGolden{Seed: o.seed, SHA256: first.digest, Windows: first.windows}

	engines := engineCountsNow().since(enginesBefore)
	out.set("registry.acquired", float64(engines.acquired))
	out.set("registry.released", float64(engines.released))
	out.set("registry.poisoned", float64(engines.poisoned))
	if engines.acquired != engines.released || engines.poisoned != 0 {
		out.problem("engines: %d acquired, %d released, %d poisoned", engines.acquired, engines.released, engines.poisoned)
	}
	return out, nil
}

// rehearse makes the set-ups due before the next pass of a run begun at begin,
// two at least.
func rehearse(root string, m Matrix, begin time.Time, out *outcome) error {
	for i := 0; i < 2 || sum(out.setups) < setupShare*time.Since(begin).Seconds(); i++ {
		start := time.Now()
		s, err := setUpPass(root, m, false)
		if err != nil {
			return err
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
		if _, _, err := s.finish(); err != nil {
			return err
		}
	}
	return nil
}

// absorb folds pass k into the outcome's running totals and checks that it
// output what pass 0 did.
func (o *outcome) absorb(p passResult, k int, digest string) {
	o.setups = append(o.setups, p.setup.Seconds())
	if p.digest != digest {
		o.problem("pass %d: records hash to %s, those of pass 0 to %s", k, p.digest, digest)
	}
	o.attempted += len(p.recs)
	o.failed += p.failed
	for _, msg := range p.problems {
		o.problem("pass %d: %s", k, msg)
	}
}

// runBatchUntraced repeats the pass until another would overrun the time by
// more than half its length. The passes run the same trials, so they differ
// only by what disturbed them from outside the program, which on a shared
// two-core box is a lot (the same pass takes 1.0 to 1.6 s) and only ever
// slows a pass. The fastest pass is therefore the measurement: its wall-clock
// is the latency of the user's request, which on a batch is the pass and has
// no distribution of its own.
func runBatchUntraced(spec batchSpec, o runOpts, out *outcome) (passResult, error) {
	var (
		first passResult
		walls []float64
		begin = time.Now()
	)
	for k := 0; ; k++ {
		m := spec.passMatrix(o.seed)
		if err := rehearse(o.tmp, m, begin, out); err != nil {
			return first, err
		}
		p, err := runPass(o.tmp, spec, m, nil)
		if err != nil {
			return first, err
		}
		if k == 0 {
			first = p
		}
		out.absorb(p, k, first.digest)
		walls = append(walls, p.wall.Seconds())
		if time.Since(begin)+p.wall/2 > o.seconds {
			break
		}
	}
	walls = sortedCopy(walls)
	out.note("%d passes of %d trials: fastest %.3f s, median %.3f s, slowest %.3f s",
		len(walls), spec.TrialsPerPass, walls[0], median(walls), walls[len(walls)-1])
	out.set("latency_p50_ms", 1000*walls[0])
	out.set("latency_p95_ms", 1000*walls[0])
	return first, nil
}

// runBatchTraced alternates untraced and traced passes for half the time,
// then replays the pass trial by trial on one goroutine with a span around
// every call into a layer.
func runBatchTraced(spec batchSpec, o runOpts, out *outcome) (passResult, error) {
	var (
		first                       passResult
		plain, traced               []float64
		consumeUS, flushMS, written []float64
		allocMB, mallocs, gcs, peak []float64
		begin                       = time.Now()
	)
	for k := 0; ; k++ {
		m := spec.passMatrix(o.seed)
		if err := rehearse(o.tmp, m, begin, out); err != nil {
			return first, err
		}
		p, err := runPass(o.tmp, spec, m, nil)
		if err != nil {
			return first, err
		}
		if k == 0 {
			first = p
		}
		out.absorb(p, 2*k, first.digest)
		plain = append(plain, p.wall.Seconds())

		t, err := runPass(o.tmp, spec, m, o.spans)
		if err != nil {
			return first, err
		}
		out.absorb(t, 2*k+1, first.digest)
		traced = append(traced, t.wall.Seconds())
		n := float64(len(t.recs))
		consumeUS = append(consumeUS, ratio(micros(t.sinkConsume), n))
		flushMS = append(flushMS, millis(t.sinkFlush))
		written = append(written, ratio(float64(t.written), n))
		allocMB = append(allocMB, t.mem.allocMB)
		mallocs = append(mallocs, ratio(float64(t.mem.mallocs), n))
		gcs = append(gcs, float64(t.mem.gcCycles))
		peak = append(peak, t.mem.heapPeakMB)

		if time.Since(begin)+p.wall+t.wall > o.seconds/2 {
			break
		}
	}
	out.note("%d untraced and %d traced passes of %d trials", len(plain), len(traced), spec.TrialsPerPass)
	plain, traced = sortedCopy(plain), sortedCopy(traced)
	out.set("wall_s", plain[0])
	out.set("trials_per_s", float64(spec.TrialsPerPass)/plain[0])
	out.set("latency_p99_ms", 1000*plain[len(plain)-1])
	out.set("trace.overhead_share", traced[0]/plain[0]-1)
	out.set("registry.sink_us_per_record", median(consumeUS))
	out.set("registry.sink_bytes_per_record", median(written))
	out.set("registry.sink_flush_ms", median(flushMS))
	out.set("go.alloc_mb", median(allocMB))
	out.set("go.mallocs_per_op", median(mallocs))
	out.set("go.gc_cycles", median(gcs))
	out.set("go.heap_peak_mb", median(peak))
	out.set("latency_samples", float64(len(plain)))
	out.set("fail_share", ratio(float64(out.failed), float64(out.attempted)))
	out.set("parallel.workers", float64(runtime.GOMAXPROCS(0)))

	if err := replayBatch(spec, first, plain[0], o, out); err != nil {
		return first, err
	}
	return first, nil
}

// algorithms are the names the alg.<a>.* metrics are reported for.
var algorithms = []string{"core", "benor", "bracha", "committee", "paxos"}

// algCost is the replay's cost of one algorithm's trials.
type algCost struct {
	busy    time.Duration
	windows int
}

// replayBatch runs the trials of pass p again, serially, through the pooled
// engine with a timed plan, and derives the per-layer metrics from the spans.
// poolWall is the wall-clock of the fastest untraced pass on the worker pool.
func replayBatch(spec batchSpec, p passResult, poolWall float64, o runOpts, out *outcome) error {
	var (
		recs              = make([]TrialRecord, 0, len(p.recs))
		costs             = make([]trialCost, 0, len(p.recs))
		plan, busy        time.Duration
		windows, columnar int
		byAlg             = map[string]*algCost{}
		maxWindows        = spec.Matrix.MaxWindows
	)
	begin := time.Now()
	for _, coords := range p.recs {
		rec, cost, err := replayTrial(coords, maxWindows, 0)
		if err != nil {
			return fmt.Errorf("replay of trial %d (%s): %w", coords.Index, coords.Key(), err)
		}
		recs, costs = append(recs, rec), append(costs, cost)
	}
	wall := time.Since(begin)

	var acquire, run, release []float64
	for i, cost := range costs {
		acquire = append(acquire, micros(cost.acquire))
		run = append(run, micros(cost.run))
		release = append(release, micros(cost.release))
		plan += cost.plan
		busy += cost.total()
		windows += recs[i].Windows
		if cost.columnar {
			columnar++
		}
		a := byAlg[recs[i].Algorithm]
		if a == nil {
			a = &algCost{}
			byAlg[recs[i].Algorithm] = a
		}
		a.busy += cost.total()
		a.windows += recs[i].Windows
		recordTrialSpans(o.spans, recs[i], cost)
	}

	digest, err := hashRecords(recs)
	if err != nil {
		return err
	}
	if digest != p.digest {
		out.problem("serial replay records hash to %s, the parallel pass to %s", digest, p.digest)
	}
	coverage := ratio(busy.Seconds(), wall.Seconds())
	if coverage < 0.95 || coverage > 1 {
		out.problem("replay spans cover %.3f of the replay's wall-clock, want within 5%%", coverage)
	}

	acquire, run, release = sortedCopy(acquire), sortedCopy(run), sortedCopy(release)
	out.set("registry.acquire_us_p50", percentile(acquire, 50))
	out.set("registry.acquire_us_p99", percentile(acquire, 99))
	out.set("registry.release_us_p50", percentile(release, 50))
	out.set("registry.run_us_p50", percentile(run, 50))
	out.set("registry.run_us_p99", percentile(run, 99))
	out.set("registry.engine_share", ratio(sum(acquire)+sum(release), micros(busy)))
	out.set("adversary.plan_us_per_window", ratio(micros(plan), float64(windows)))
	out.set("adversary.plan_share", ratio(plan.Seconds(), busy.Seconds()))
	out.set("sim.window_us", ratio(sum(run)-micros(plan), float64(windows)))
	out.set("sim.windows", float64(windows))
	out.set("sim.columnar_trial_share", ratio(float64(columnar), float64(len(recs))))
	out.set("parallel.speedup", ratio(wall.Seconds(), poolWall))
	out.set("trace.replay_coverage", coverage)
	for _, alg := range algorithms {
		if a := byAlg[alg]; a != nil {
			out.set("alg."+alg+".trial_s", a.busy.Seconds())
			out.set("alg."+alg+".wall_share", ratio(a.busy.Seconds(), busy.Seconds()))
			out.set("alg."+alg+".us_per_window", ratio(micros(a.busy), float64(a.windows)))
		}
	}
	out.note("replay: %d trials, %d windows, %.3f s serial against %.3f s on the worker pool",
		len(recs), windows, wall.Seconds(), poolWall)

	// The leading trials once more at 2 shard workers, against their serial
	// run above.
	var serial, sharded time.Duration
	for i, coords := range p.recs[:spec.Shard2Trials] {
		rec, cost, err := replayTrial(coords, maxWindows, 2)
		if err != nil {
			return fmt.Errorf("replay of trial %d at 2 shard workers: %w", coords.Index, err)
		}
		if rec != recs[i] {
			out.problem("trial %d at 2 shard workers gives %+v, serially %+v", coords.Index, rec, recs[i])
		}
		serial += costs[i].run
		sharded += cost.run
	}
	out.set("sim.shard2_speedup", ratio(serial.Seconds(), sharded.Seconds()))
	return nil
}

// hashRecords is the SHA-256 of recs as the JSONL sink writes them.
func hashRecords(recs []TrialRecord) (string, error) {
	hash := sha256.New()
	sink := newJSONLSink(hash)
	for _, rec := range recs {
		if err := sink.Consume(rec); err != nil {
			return "", err
		}
	}
	if err := sink.Flush(); err != nil {
		return "", err
	}
	return hex.EncodeToString(hash.Sum(nil)), nil
}

// recordTrialSpans logs the spans of one replayed trial. The plan span is the
// sum of the trial's planning calls, laid at the start of the run span.
func recordTrialSpans(l *spanLog, rec TrialRecord, c trialCost) {
	if l == nil {
		return
	}
	id := strconv.Itoa(rec.Index)
	acquired := c.start.Add(c.acquire)
	ran := acquired.Add(c.run)
	l.add("trial", id, "", c.start, ran.Add(c.release))
	l.add("registry.acquire", id, "trial", c.start, acquired)
	l.add("registry.run", id, "trial", acquired, ran)
	l.add("adversary.plan", id, "registry.run", acquired, acquired.Add(c.plan))
	l.add("registry.release", id, "trial", ran, ran.Add(c.release))
}
