// Command bench runs the simulator substrate micro-benchmarks through
// testing.Benchmark and writes the results as JSON, giving every PR a
// recorded perf trajectory to compare against. With -compare it instead
// diffs a fresh run against a committed baseline and exits non-zero on a
// regression, which CI runs as a perf smoke step.
//
// Usage:
//
//	bench                               # print JSON to stdout
//	bench -out BENCH_baseline.json      # record the committed baseline
//	bench -benchtime 2s                 # more stable numbers
//	bench -compare BENCH_baseline.json  # perf smoke: fail on an allocs/op regression
//	bench -cpuprofile cpu.pprof         # profile the run (go tool pprof)
//	bench -memprofile mem.pprof         # heap profile at end of run
//
// -compare gates allocs/op only: an entry fails above
// baseline*(1+allocs-threshold)+allocs-grace, and a baseline of 0 allocs
// tolerates exactly 0. Allocation counts are machine-independent; ns/op on a
// shared runner is not, so the ns/op columns are printed for the reader and
// every timing claim is made by the repo benchmark instead (BENCHMARK.json,
// benchmark/), which states its environment, sample count and noise floor.
// The small absolute grace (default 8) absorbs cross-machine variance in
// amortized warm-up allocations (worker counts change how many pooled trial
// engines are constructed before steady state); any systematic
// re-introduction of per-window or per-trial allocation exceeds it
// immediately. A baseline entry with no matching fresh benchmark also fails
// the comparison: a renamed or deleted case must come with a regenerated
// baseline, not a silent coverage hole.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"asyncagree/internal/benchcases"
)

// Entry is one benchmark measurement. Cases whose body reports a "msgs/op"
// metric (the Window* family: n² messages per window) also record the
// per-message normalization, so O(n²)-inherent growth across sizes stays
// distinguishable from per-message kernel overhead.
type Entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerMsg    float64 `json:"ns_per_msg,omitempty"`
	MsgsPerOp   float64 `json:"msgs_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
}

// baselineDoc is the BENCH_baseline.json layout.
type baselineDoc struct {
	Note    string  `json:"note"`
	Entries []Entry `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// suite returns the benchmark inventory in recording order. The bodies live
// in internal/benchcases, shared with the root bench_test.go, so the
// baseline and `go test -bench` measure identical code.
func suite() []struct {
	name string
	fn   func(b *testing.B)
} {
	var cases []struct {
		name string
		fn   func(b *testing.B)
	}
	add := func(name string, fn func(b *testing.B)) {
		cases = append(cases, struct {
			name string
			fn   func(b *testing.B)
		}{name, fn})
	}
	for _, n := range []int{12, 24, 48, 256, 1024} {
		add("WindowThroughput/"+benchcases.SizeLabel(n), benchcases.WindowThroughput(n))
	}
	for _, n := range []int{256, 1024} {
		add("WindowThroughputMessage/"+benchcases.SizeLabel(n),
			benchcases.WindowThroughputMessage(n))
	}
	for _, n := range []int{256, 1024} {
		add("WindowThroughputSharded/"+benchcases.SizeLabel(n)+"/w=4",
			benchcases.WindowThroughputSharded(n, 4))
	}
	add("SplitVoteWindow/"+benchcases.SizeLabel(24), benchcases.SplitVoteWindow(24))
	add("SubsetPlanWindow/"+benchcases.SizeLabel(128), benchcases.SubsetPlanWindow(128))
	add("BrachaWindow/"+benchcases.SizeLabel(13), benchcases.BrachaWindow(13))
	add("PaxosDecision/"+benchcases.SizeLabel(5), benchcases.PaxosDecision(5))
	add("BufferOps", benchcases.BufferOps())
	add("SweepThroughput", benchcases.SweepThroughput())
	add("SweepMemory/trials=4096", benchcases.SweepMemory(4096))
	return cases
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		out          = fs.String("out", "", "write JSON here instead of stdout")
		benchtime    = fs.Duration("benchtime", time.Second, "target time per benchmark")
		compare      = fs.String("compare", "", "diff a fresh run against this baseline JSON and exit non-zero on regression")
		allocsThresh = fs.Float64("allocs-threshold", 0.25, "relative allocs/op regression threshold for -compare")
		allocsGrace  = fs.Int64("allocs-grace", 8, "absolute allocs/op grace for -compare")
		cpuprofile   = fs.String("cpuprofile", "", "write a CPU profile of the benchmark run here (go test convention)")
		memprofile   = fs.String("memprofile", "", "write an end-of-run heap profile here (go test convention)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var entries []Entry
	for _, c := range suite() {
		res := testing.Benchmark(c.fn)
		e := Entry{
			Name:        c.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			N:           res.N,
		}
		if msgs := res.Extra["msgs/op"]; msgs > 0 {
			e.MsgsPerOp = msgs
			e.NsPerMsg = e.NsPerOp / msgs
		}
		entries = append(entries, e)
		fmt.Fprintf(os.Stderr, "%-32s %12.0f ns/op %8d allocs/op %10d B/op",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
		if e.MsgsPerOp > 0 {
			fmt.Fprintf(os.Stderr, " %10.2f ns/msg", e.NsPerMsg)
		}
		fmt.Fprintln(os.Stderr)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // up-to-date heap statistics, as go test does
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	if *compare != "" {
		return compareBaseline(*compare, entries, *allocsThresh, *allocsGrace)
	}

	doc := baselineDoc{
		Note:    "regenerate with: go run ./cmd/bench -out BENCH_baseline.json",
		Entries: entries,
	}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(js)
		return err
	}
	return os.WriteFile(*out, js, 0o644)
}

// compareBaseline diffs fresh entries against the baseline file and returns
// an error (non-zero exit) if any shared entry's allocs/op regressed or any
// baseline entry was not measured by the fresh run.
func compareBaseline(path string, fresh []Entry, allocsThresh float64, allocsGrace int64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base baselineDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	byName := make(map[string]Entry, len(base.Entries))
	for _, e := range base.Entries {
		byName[e.Name] = e
	}

	regressions := 0
	measured := make(map[string]bool, len(fresh))
	for _, e := range fresh {
		measured[e.Name] = true
		b, ok := byName[e.Name]
		if !ok {
			fmt.Printf("%-28s NEW (no baseline entry; record with -out)\n", e.Name)
			continue
		}
		var allocLimit int64 // a baseline of 0 allocs tolerates 0
		if b.AllocsPerOp > 0 {
			allocLimit = int64(math.Ceil(float64(b.AllocsPerOp)*(1+allocsThresh))) + allocsGrace
		}
		status := "ok"
		if e.AllocsPerOp > allocLimit {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-28s %-10s allocs/op %8d -> %8d (limit %8d)  ns/op %12.0f -> %12.0f (not gated)\n",
			e.Name, status, b.AllocsPerOp, e.AllocsPerOp, allocLimit, b.NsPerOp, e.NsPerOp)
	}
	for _, b := range base.Entries {
		if !measured[b.Name] {
			fmt.Printf("%-28s MISSING (baseline entry not measured; regenerate the baseline if it was renamed or removed)\n", b.Name)
			regressions++
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d benchmark(s) regressed or went missing vs %s", regressions, path)
	}
	fmt.Printf("no regressions vs %s (%d entries compared)\n", path, len(fresh))
	return nil
}
