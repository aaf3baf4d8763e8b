// Command benchmark is the repo's benchmark: six named workloads, from the
// default sweep to the agreed service, measured end to end from where the
// user stands and, in a separate traced run, layer by layer from outside the
// layers. See README.md.
//
//	bash benchmark/run.sh -workload sweep-short -seed 1 -seconds 20 -trace 0
//	bash benchmark/run.sh -workload sweep-short -trace 1 -out traced.jsonl
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

//go:embed golden.json
var builtinGolden []byte

// golden pins, for one workload seed, what the program must output.
type golden struct {
	Batch map[string]batchGolden `json:"batch"`
	Serve map[string]serveGolden `json:"serve"`
}

// batchGolden pins the JSONL export and the window total of a batch
// workload's pass under Seed.
type batchGolden struct {
	Seed    uint64 `json:"seed"`
	SHA256  string `json:"sha256"`
	Windows int    `json:"windows"`
}

// serveGolden pins the open loop's replies, concatenated in request order,
// under Seed when the loop has Replies requests.
type serveGolden struct {
	Seed          uint64 `json:"seed"`
	Replies       int    `json:"replies"`
	RepliesSHA256 string `json:"replies_sha256"`
}

// runOpts is what one run of one workload is given.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	tmp     string // directory for the run's files
	golden  golden
	spans   *spanLog // nil when untraced
}

// outcome is what one run of one workload produced.
type outcome struct {
	values            map[string]float64
	attempted, failed int
	problems, notes   []string
	setups            []float64 // seconds, one per set-up made
	// What this run would pin in golden.json.
	batch *batchGolden
	serve *serveGolden
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// measured is a metric's value on the result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// environment is recorded with every run.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Go: runtime.Version(), Commit: "unknown"}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// report is one line of an -out file: everything about one run.
type report struct {
	Env      environment `json:"env"`
	Workload workload    `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Traced   bool        `json:"traced"`
	Result   result      `json:"result"`
	Problems []string    `json:"problems,omitempty"`
	Notes    []string    `json:"notes,omitempty"`
	Spans    []span      `json:"spans,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], workloads, os.Stdout, os.Stderr)) }

// run is the benchmark's body over a table of workloads: the result lines go
// to stdout, everything for a reader to stderr. It returns the exit code.
func run(args []string, table []workload, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names      = fs.String("workload", "all", "workload to run: a name, a comma-separated list, or all")
		seed       = fs.Uint64("seed", 1, "workload seed (>= 1): every input is made from it")
		seconds    = fs.Float64("seconds", 20, "how long each workload measures")
		trace      = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run with the per-layer metrics")
		outPath    = fs.String("out", "", "append one JSON line per run to this file: environment, constants, result, spans")
		compare    = fs.Bool("compare", false, "compare two -out files given as arguments against the bounds in BENCHMARK.json")
		goldenPath = fs.String("golden", "", "check outputs against this file in place of the built-in golden.json")
		update     = fs.Bool("update-golden", false, "write what this run output to the -golden file, for the workloads run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two -out files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seed < 1 || *seconds <= 0 || *trace < 0 || *trace > 1 || (*update && *goldenPath == "") {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h (-update-golden needs -golden)")
		return 2
	}

	var selected []workload
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			selected = append(selected, table...)
		} else if w, ok := findWorkload(table, name); ok {
			selected = append(selected, w)
		} else {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", name)
			return 2
		}
	}

	// An updating run checks against nothing and pins what it sees.
	var gold golden
	seen := golden{Batch: map[string]batchGolden{}, Serve: map[string]serveGolden{}}
	if !*update {
		pinned := builtinGolden
		if *goldenPath != "" {
			var err error
			if pinned, err = os.ReadFile(*goldenPath); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 2
			}
		}
		if err := json.Unmarshal(pinned, &gold); err != nil {
			fmt.Fprintf(stderr, "benchmark: golden file: %v\n", err)
			return 2
		}
	}

	tmp, err := os.MkdirTemp("", "asyncagree-bench-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	env := currentEnvironment()
	fmt.Fprintf(stderr, "environment: nproc %d, GOMAXPROCS %d, %s, %s, commit %s\n",
		env.NProc, env.GOMAXPROCS, env.CPU, env.Go, env.Commit)

	code := 0
	for _, w := range selected {
		o := runOpts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
			traced: *trace == 1, tmp: tmp, golden: gold}
		if o.traced {
			o.spans = newSpanLog()
		}
		rep := report{Env: env, Workload: w, Seed: *seed, Seconds: *seconds, Traced: o.traced}
		out, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		rep.Result, err = out.result(o.traced)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		rep.Problems, rep.Notes = out.problems, out.notes
		if o.spans != nil {
			rep.Spans = o.spans.spans
		}
		printReport(stderr, rep)
		if !rep.Result.Correct {
			code = 1
		}
		if *outPath != "" {
			if err := appendLine(*outPath, rep); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		if out.batch != nil {
			seen.Batch[w.Name] = *out.batch
		}
		if out.serve != nil {
			seen.Serve[w.Name] = *out.serve
		}
		line, _ := json.Marshal(rep.Result)
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if *update && code == 0 {
		b, _ := json.MarshalIndent(seen, "", "  ")
		if err := os.WriteFile(*goldenPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

func runWorkload(w workload, o runOpts) (*outcome, error) {
	if w.Batch != nil {
		return runBatch(w.Name, *w.Batch, o)
	}
	return runServe(w.Name, *w.Serve, o)
}

// result turns the outcome into the result line: every end-to-end metric of
// an untraced run, every per-layer metric of a traced one.
func (o *outcome) result(traced bool) (result, error) {
	r := result{Correct: len(o.problems) == 0 && o.failed == 0, Attempted: o.attempted,
		Failed: o.failed, Metrics: map[string]measured{}}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		v, ok := o.values[m.Name]
		if !ok && !traced {
			return r, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		r.Metrics[m.Name] = measured{Value: v, Unit: m.Unit}
	}
	return r, nil
}

func printReport(w io.Writer, rep report) {
	kind := "end-to-end, tracing off"
	list := endToEnd
	if rep.Traced {
		kind, list = "per-layer, traced", perLayer
	}
	fmt.Fprintf(w, "\n%s  seed %d, %g s, %s\n", rep.Workload.Name, rep.Seed, rep.Seconds, kind)
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, m := range list {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.Name, rep.Result.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %t\n", rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}

func appendLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
