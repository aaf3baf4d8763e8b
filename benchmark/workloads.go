package main

// This file holds every constant of the benchmark: the workloads, by their
// permanent names, and the metrics, as BENCHMARK.json lists them. Nothing
// here is computed at run time except what follows from -seed and -seconds.

// workload is one named set of inputs; exactly one of batch and serve is set.
type workload struct {
	Name  string     `json:"name"`
	Batch *batchSpec `json:"batch,omitempty"`
	Serve *serveSpec `json:"serve,omitempty"`
}

// splitOnly restricts a grid to the split input, the adversarial input of
// the paper's slowness arguments.
var splitOnly = []string{"split"}

// sweepDefault is registry.DefaultMatrix() with one of its three seeds per
// pass: the shapes are untouched, the passes are shorter.
func sweepDefault() Matrix {
	m := defaultMatrix()
	m.Seeds = nil
	return m
}

// sweepShort is the default grid restricted to the two algorithms whose
// trials are short, with a window budget that keeps them so: at the default
// budget of 20000 the 1 % of trials that never decide are half of the work,
// and how many there are depends on the seed.
func sweepShort() Matrix {
	m := sweepDefault()
	m.Algorithms = []string{"core", "benor"}
	m.MaxWindows = 100
	return m
}

// The serve mixes. The light scenarios answer in about half a millisecond,
// most of it HTTP and JSON; the heavy one is bound by the engine.
var (
	lightScenarios = []scenario{
		{Algorithm: "core", Adversary: "full", Scheduler: "adversary", Input: "split", N: 12, T: 1},
		{Algorithm: "core", Adversary: "splitvote", Scheduler: "adversary", Input: "split", N: 24, T: 3},
		{Algorithm: "benor", Adversary: "subsets", Scheduler: "adversary", Input: "split", N: 9, T: 2},
		{Algorithm: "paxos", Adversary: "full", Scheduler: "adversary", Input: "split", N: 12, T: 5},
	}
	heavyScenario = scenario{Algorithm: "bracha", Adversary: "full", Scheduler: "adversary", Input: "split", N: 13, T: 4}
)

// workloads lists the six workloads. The names are permanent.
var workloads = []workload{
	{Name: "sweep-default", Batch: &batchSpec{
		Matrix: sweepDefault(), SeedsPerPass: 1, OwnSeeds: true, TrialsPerPass: 308,
	}},
	{Name: "sweep-short", Batch: &batchSpec{
		Matrix: sweepShort(), SeedsPerPass: 60, TrialsPerPass: 12000,
	}},
	{Name: "scale-columnar", Batch: &batchSpec{
		Matrix: Matrix{
			Algorithms:  []string{"core", "benor"},
			Adversaries: []string{"full", "storm", "silence", "splitvote"},
			Schedulers:  []string{"adversary", "laggard"},
			Sizes:       []Size{{N: 1024, T: 128}},
			Inputs:      splitOnly,
			MaxWindows:  300,
		},
		SeedsPerPass: 1, TrialsPerPass: 10, Shard2Trials: 2,
	}},
	{Name: "sweep-chaos", Batch: &batchSpec{
		Matrix: Matrix{
			Algorithms:  []string{"core"},
			Adversaries: []string{"subsets", "random", "splitvote", "full"},
			Schedulers:  []string{"adversary", "seeded"},
			Sizes:       []Size{{N: 128, T: 16}},
			Inputs:      splitOnly,
			MaxWindows:  300,
		},
		SeedsPerPass: 2, TrialsPerPass: 10,
	}},
	{Name: "serve-run", Serve: &serveSpec{
		Light: lightScenarios, Heavy: []scenario{heavyScenario}, LightEach: 4, HeavyEach: 4,
		RateRPS: 200, LimitMS: 100, ClosedShare: 0.3, MaxWindows: 20000,
	}},
	{Name: "serve-journal", Serve: &serveSpec{
		Light: lightScenarios[:3], Heavy: []scenario{heavyScenario}, Journal: true,
		RateRPS: 200, LimitMS: 100, ClosedShare: 0.3, MaxWindows: 20000,
	}},
}

func findWorkload(table []workload, name string) (workload, bool) {
	for _, w := range table {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number, as BENCHMARK.json declares it.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics of an untraced run. Every workload reports every
// one of them, so each is defined for a batch and for a service:
//
//   - latency_* is the time from when a trial was due to when its result
//     reached the user. The trials of a batch are all due when the batch is
//     submitted, and the user has them when the sweep returns, so a batch has
//     one latency, the wall-clock of the pass; a request of the open loop is
//     due on the schedule, whether or not it could be sent then.
//
// Work completed per second (trials_per_s) is a per-layer metric: on a batch
// it is the same measurement as the latency, and on a service, the capacity
// of the closed loop, it spread by up to 0.21 between runs of the same code.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
}

// perLayer are the metrics of a traced run. A metric that does not apply to
// a workload (service.* on a batch, alg.* on a service) is reported as 0.
var perLayer = func() []metric {
	ms := []metric{
		{"trials_per_s", "1/s"},
		{"wall_s", "s"},
		{"capacity_rps", "1/s"},
		{"within_limit_share", "ratio"},
		{"fail_share", "ratio"},
		{"latency_p99_ms", "ms"},
		{"latency_samples", "count"},
		{"latency_supported_pct", "%"},
		{"registry.acquire_us_p50", "us"},
		{"registry.acquire_us_p99", "us"},
		{"registry.release_us_p50", "us"},
		{"registry.run_us_p50", "us"},
		{"registry.run_us_p99", "us"},
		{"registry.engine_share", "ratio"},
		{"registry.acquired", "count"},
		{"registry.released", "count"},
		{"registry.poisoned", "count"},
		{"registry.sink_us_per_record", "us"},
		{"registry.sink_bytes_per_record", "B"},
		{"registry.sink_flush_ms", "ms"},
		{"parallel.speedup", "ratio"},
		{"parallel.workers", "count"},
		{"adversary.plan_us_per_window", "us"},
		{"adversary.plan_share", "ratio"},
		{"sim.window_us", "us"},
		{"sim.windows", "count"},
		{"sim.columnar_trial_share", "ratio"},
		{"sim.shard2_speedup", "ratio"},
	}
	for _, alg := range algorithms {
		ms = append(ms,
			metric{"alg." + alg + ".trial_s", "s"},
			metric{"alg." + alg + ".wall_share", "ratio"},
			metric{"alg." + alg + ".us_per_window", "us"})
	}
	return append(ms,
		metric{"service.handler_us_p50", "us"},
		metric{"service.handler_us_p99", "us"},
		metric{"service.overhead_us_p50", "us"},
		metric{"service.transport_us_p50", "us"},
		metric{"service.instance_run_us_p50", "us"},
		metric{"service.instance_get_us_p50", "us"},
		metric{"service.journal_bytes_per_run", "B"},
		metric{"service.journal_replay_ms", "ms"},
		metric{"service.inflight_mean", "count"},
		metric{"service.queued_max", "count"},
		metric{"service.served", "count"},
		metric{"service.shed", "count"},
		metric{"service.faulted", "count"},
		metric{"gen.due", "count"},
		metric{"gen.sent", "count"},
		metric{"gen.late_us_p50", "us"},
		metric{"gen.late_us_p99", "us"},
		metric{"go.alloc_mb", "MB"},
		metric{"go.mallocs_per_op", "count"},
		metric{"go.gc_cycles", "count"},
		metric{"go.heap_peak_mb", "MB"},
		metric{"trace.overhead_share", "ratio"},
		metric{"trace.replay_coverage", "ratio"},
	)
}()
