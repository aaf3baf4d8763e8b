package registry

import (
	"runtime"
	"testing"
)

// gcPeakSink samples live-heap growth on the emission path: every interval
// trials it forces a collection and records the retained-byte high-water
// mark relative to the pre-run baseline. Forcing GC makes the reading the
// *retained* set, not allocation churn.
type gcPeakSink struct {
	interval int
	seen     int
	baseline uint64
	peak     int64
}

func newGCPeakSink(interval int) *gcPeakSink {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &gcPeakSink{interval: interval, baseline: ms.HeapAlloc}
}

func (s *gcPeakSink) Consume(TrialRecord) error {
	s.seen++
	if s.seen%s.interval != 0 {
		return nil
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if delta := int64(ms.HeapAlloc) - int64(s.baseline); delta > s.peak {
		s.peak = delta
	}
	return nil
}

func (s *gcPeakSink) Flush() error { return nil }

// TestRunPeakRetainedMemoryIndependentOfTrialCount is the acceptance
// assertion of the streaming pipeline: the sweep's peak retained memory is
// O(cells), not O(trials). A single cell is swept with a 32× difference in
// seed count; before the pipeline the run materialized a trialSpec list and
// a result slice (plus per-cell windows collection) linear in the trial
// count — at 32768 trials several megabytes — while the streaming path
// retains only the cell aggregate, the bounded reorder window, and the
// seeds themselves.
func TestRunPeakRetainedMemoryIndependentOfTrialCount(t *testing.T) {
	if testing.Short() {
		t.Skip("memory sweep is expensive")
	}
	if raceEnabled {
		t.Skip("race runtime heap readings are unrepresentative")
	}
	measure := func(seedCount int) int64 {
		m := Matrix{
			Algorithms:  []string{"core"},
			Adversaries: []string{"full"},
			Schedulers:  []string{"adversary"},
			Sizes:       []Size{{N: 12, T: 1}},
			Inputs:      []string{"ones"}, // decides in the first window
			MaxWindows:  4,
		}
		for s := uint64(1); s <= uint64(seedCount); s++ {
			m.Seeds = append(m.Seeds, s)
		}
		sink := newGCPeakSink(512)
		sweep, err := m.RunWith(RunOptions{Sinks: []ResultSink{sink}})
		if err != nil {
			t.Fatal(err)
		}
		if sweep.TrialCount != seedCount || len(sweep.Cells) != 1 {
			t.Fatalf("sweep shape: %d trials, %d cells", sweep.TrialCount, len(sweep.Cells))
		}
		runtime.KeepAlive(sweep)
		return sink.peak
	}

	small := measure(1024)
	big := measure(32768)
	// 32× the trials may not cost more than a fixed slack (2 MiB, which
	// absorbs the 31× larger seed list, pool warm-up, and GC jitter). The
	// pre-pipeline buffering cost ~160 B/trial — ~5 MiB at the big size —
	// and trips this immediately.
	const slack = 2 << 20
	if big > small+slack {
		t.Fatalf("peak retained memory grew with trial count: %d B at 1024 trials, %d B at 32768 (slack %d)",
			small, big, slack)
	}
}

// TestEnginesSurviveGC pins what the explicit engine pool is for: a
// garbage collection between two runs of the same sweep keeps every engine
// the first run released, so the second builds none. A sync.Pool per
// scenario, emptied by every collection, rebuilt all 154 of the default
// grid's scenarios here. The runs are serial, so the second asks for no more
// engines of a scenario at once than the first did; the window budget is
// short only to keep the test quick.
func TestEnginesSurviveGC(t *testing.T) {
	m := DefaultMatrix()
	m.Seeds = []uint64{1}
	m.MaxWindows = 10
	run := func() int64 {
		before := EngineStatsSnapshot()
		if _, err := m.RunWith(RunOptions{Serial: true}); err != nil {
			t.Fatal(err)
		}
		return EngineStatsSnapshot().Built - before.Built
	}
	run()
	runtime.GC()
	if built := run(); built != 0 {
		t.Fatalf("the second run built %d engines after a GC, want 0", built)
	}
}

// setBudget sets the pool's budget, evicting down to it, and returns the
// budget it replaced.
func (p *enginePool) setBudget(budget int64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.budget
	p.budget = budget
	p.evict()
	return old
}

// charge returns the idle engines' charge and the budget.
func (p *enginePool) charge() (charged, budget int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.charged, p.budget
}

// TestEnginePoolStaysWithinBudget runs, row by row, a grid whose engines
// exceed a small budget many times over and checks the bound three ways:
// the idle engines' charge stays within the budget, the pool evicted the
// grid's engines, and the live heap after a collection stays within
// heapMultiple budgets of where it started. The charge
// (sim.System.ScratchBytes, with the processes' RetainedBytes) counts what
// an engine keeps to within a few percent, so the multiple leaves room for
// GC jitter and what no charge counts, not for half an engine unreported.
// The rows: Bracha and committee at 27:3 under every scheduler, where one
// committee engine alone (its kept agreements, 5 MB) outgrows the budget;
// core at 1024:128 on the columnar path, charged for its ledgers and
// columns; and Bracha at 27:3 alone, whose engines shrank n-fold once a
// broadcast became one buffered record. A first pass under a zero budget
// keeps process-wide caches out of the measurement. The same grid under an
// unbounded budget must break the heap bound, or the row shows nothing.
func TestEnginePoolStaysWithinBudget(t *testing.T) {
	const heapMultiple = 2
	everyScheduler := []string{"adversary", "ascmin", "laggard", "alternate", "full", "seeded"}
	for _, row := range []struct {
		name   string
		budget int64
		m      Matrix
	}{
		{"bracha and committee 27:3", 4 << 20, Matrix{Algorithms: []string{"bracha", "committee"},
			Sizes: []Size{{N: 27, T: 3}}, MaxWindows: 2000}},
		{"core 1024:128", 1 << 20, Matrix{Algorithms: []string{"core"},
			Sizes: []Size{{N: 1024, T: 128}}, MaxWindows: 40}},
		{"bracha 27:3", 1 << 20, Matrix{Algorithms: []string{"bracha"},
			Sizes: []Size{{N: 27, T: 3}}, MaxWindows: 2000}},
	} {
		t.Run(row.name, func(t *testing.T) {
			m := row.m
			m.Adversaries, m.Schedulers = []string{"full"}, everyScheduler
			m.Inputs, m.Seeds = []string{"split"}, []uint64{1, 2}
			defer engines.setBudget(engines.setBudget(0)) // drops what earlier tests left
			measure := func(budget int64) (heap int64, evicted int64) {
				engines.setBudget(0)
				engines.setBudget(budget)
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				base := ms.HeapAlloc
				before := EngineStatsSnapshot()
				if _, err := m.RunWith(RunOptions{}); err != nil {
					t.Fatal(err)
				}
				if c, b := engines.charge(); c > b {
					t.Fatalf("idle engines charged %d B, budget %d B", c, b)
				}
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return int64(ms.HeapAlloc) - int64(base), EngineStatsSnapshot().Evicted - before.Evicted
			}

			measure(0) // builds process-wide caches, such as rng's rejection tables, outside the bound
			heap, evicted := measure(row.budget)
			t.Logf("capped at %.1f MB: %.1f MB live after GC, %d evicted", float64(row.budget)/1e6, float64(heap)/1e6, evicted)
			if evicted == 0 {
				t.Fatal("vacuous: the grid's engines fit the budget, nothing was evicted")
			}
			if heap > heapMultiple*row.budget {
				t.Fatalf("live heap grew %.1f MB over a pool budget of %.1f MB, bound %d×",
					float64(heap)/1e6, float64(row.budget)/1e6, heapMultiple)
			}
			uncapped, _ := measure(1 << 40)
			t.Logf("uncapped: %.1f MB more live after GC", float64(uncapped)/1e6)
			if uncapped <= heapMultiple*row.budget {
				t.Fatalf("vacuous: unbounded, the grid keeps only %.1f MB more live", float64(uncapped)/1e6)
			}
		})
	}
}
