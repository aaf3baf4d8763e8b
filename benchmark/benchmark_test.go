package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinyTable is the six workloads at a scale that runs in a second or two:
// the same axes and mixes on the smallest shapes, a few windows per trial.
func tinyTable(t *testing.T) []workload {
	t.Helper()
	shrink := map[string]func(*batchSpec){
		"sweep-default":  func(b *batchSpec) { b.Matrix.Sizes = []Size{{N: 12, T: 1}}; b.Matrix.MaxWindows = 3 },
		"sweep-short":    func(b *batchSpec) { b.Matrix.Sizes = []Size{{N: 12, T: 1}}; b.SeedsPerPass = 2 },
		"scale-columnar": func(b *batchSpec) { b.Matrix.Sizes = []Size{{N: 64, T: 8}}; b.Matrix.MaxWindows = 20 },
		"sweep-chaos":    func(b *batchSpec) { b.Matrix.Sizes = []Size{{N: 32, T: 4}}; b.Matrix.MaxWindows = 20 },
	}
	var table []workload
	for _, w := range workloads {
		if w.Batch != nil {
			b := *w.Batch
			shrink[w.Name](&b)
			tap := &tapSink{}
			if _, err := runSweep(b.passMatrix(1), []ResultSink{tap}); err != nil {
				t.Fatal(err)
			}
			b.TrialsPerPass = len(tap.recs)
			w.Batch = &b
		}
		table = append(table, w)
	}
	return table
}

// TestWorkloadsAtTinyScale runs every workload untraced and traced, and
// checks that each run is correct and reports exactly the declared metrics.
func TestWorkloadsAtTinyScale(t *testing.T) {
	table := tinyTable(t)
	// The built-in golden file pins the workloads at their real scale.
	gold := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(gold, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		out := filepath.Join(t.TempDir(), "out.jsonl")
		args := []string{"-seconds", "0.25", "-trace", trace, "-out", out, "-golden", gold}
		if code := run(args, table, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if len(lines) != len(table) {
			t.Fatalf("trace %s: %d result lines for %d workloads", trace, len(lines), len(table))
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		for i, line := range lines {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 || len(r.Metrics) != len(want) {
				t.Errorf("%s trace %s: %s", table[i].Name, trace, line)
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || (trace == "0" && got.Value <= 0) {
					t.Errorf("%s trace %s: metric %s is %+v", table[i].Name, trace, m.Name, got)
				}
			}
		}
		reports, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(bytes.SplitN(reports, []byte("\n"), 2)[0], &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Env.NProc < 1 || rep.Env.Go == "" || rep.Workload.Batch == nil || (trace == "1") != (len(rep.Spans) > 0) {
			t.Errorf("trace %s: report lacks its environment, constants or spans: %+v", trace, rep.Env)
		}
	}
}

// TestOwnSeedsKeepTheTrials checks that sweep-default runs the same trials
// under every workload seed, in an order the seed decides.
func TestOwnSeedsKeepTheTrials(t *testing.T) {
	w, _ := findWorkload(workloads, "sweep-default")
	keys := func(seed uint64) (inOrder []string, set map[string]bool) {
		m := w.Batch.passMatrix(seed)
		set = map[string]bool{}
		for _, size := range m.Sizes {
			for _, input := range m.Inputs {
				for _, trialSeed := range m.Seeds {
					key := fmt.Sprint(size, input, trialSeed)
					inOrder, set[key] = append(inOrder, key), true
				}
			}
		}
		return inOrder, set
	}
	first, want := keys(1)
	reordered := false
	for seed := uint64(2); seed <= 10; seed++ {
		got, set := keys(seed)
		if !reflect.DeepEqual(set, want) {
			t.Errorf("workload seed %d: trials %v, seed 1 has %v", seed, got, first)
		}
		reordered = reordered || !reflect.DeepEqual(got, first)
	}
	if !reordered {
		t.Error("workload seeds 2 to 10 all keep the order of seed 1")
	}
	if again, _ := keys(1); !reflect.DeepEqual(again, first) || !reflect.DeepEqual(w.Batch.Matrix.Sizes, defaultMatrix().Sizes) {
		t.Error("passMatrix is not a function of the seed, or it reorders the spec's own slices")
	}
}

// TestTracedRunShowsTheLayers checks the vacuity guards of the traced run:
// the columnar workload really runs columnar, and planning really dominates
// the chaos workload.
func TestTracedRunShowsTheLayers(t *testing.T) {
	table := tinyTable(t)
	for _, c := range []struct {
		workload, metric string
		min              float64
	}{
		{"scale-columnar", "sim.columnar_trial_share", 1},
		{"sweep-chaos", "adversary.plan_share", 0.5},
		{"sweep-default", "alg.bracha.wall_share", 0.2},
	} {
		w, _ := findWorkload(table, c.workload)
		out, err := runWorkload(w, runOpts{seed: 1, seconds: 100 * time.Millisecond, traced: true,
			tmp: t.TempDir(), spans: newSpanLog()})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.problems) != 0 || out.values[c.metric] < c.min {
			t.Errorf("%s: %s = %g, want >= %g; problems %v", c.workload, c.metric, out.values[c.metric], c.min, out.problems)
		}
	}
}

// TestCorruptGoldenFailsTheRun shows that a wrong output ends the run with a
// non-zero exit code: the golden file is first written by a run, then one
// digit of a digest is changed.
func TestCorruptGoldenFailsTheRun(t *testing.T) {
	table := tinyTable(t)
	for _, name := range []string{"sweep-chaos", "serve-run"} {
		gold := filepath.Join(t.TempDir(), "golden.json")
		args := []string{"-workload", name, "-seconds", "0.2", "-golden", gold}
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-update-golden"), table, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: pinning: exit code %d\n%s", name, code, stderr.String())
		}
		if code := run(args, table, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: against its own golden file: exit code %d\n%s", name, code, stderr.String())
		}
		pinned, err := os.ReadFile(gold)
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(pinned, []byte(`sha256": "`)) + len(`sha256": "`)
		pinned[i] ^= 1 // '0'<->'1', 'a'<->'`', ...: no longer the digest
		if err := os.WriteFile(gold, pinned, 0o644); err != nil {
			t.Fatal(err)
		}
		stdout.Reset()
		if code := run(args, table, &stdout, &stderr); code == 0 {
			t.Errorf("%s: exit code 0 against a corrupt golden file", name)
		}
		var r result
		if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &r); err != nil || r.Correct {
			t.Errorf("%s: result line %q, want correct false", name, stdout.String())
		}
	}
}

// TestTimedPlanLeavesTrialsAlone replays a columnar and a message-path trial
// through the timed plan: the records equal the sweep's own, and the system
// still plans the columnar trial columnar.
func TestTimedPlanLeavesTrialsAlone(t *testing.T) {
	m := Matrix{Algorithms: []string{"core", "bracha"}, Adversaries: []string{"splitvote", "full"},
		Schedulers: []string{"adversary", "laggard"}, Sizes: []Size{{N: 13, T: 2}}, Inputs: splitOnly,
		Seeds: []uint64{7}, MaxWindows: 200}
	tap := &tapSink{}
	if _, err := runSweep(m, []ResultSink{tap}); err != nil {
		t.Fatal(err)
	}
	columnar := map[string]bool{}
	for _, want := range tap.recs {
		got, cost, err := replayTrial(want, m.MaxWindows, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: replay gives %+v, the sweep %+v", want.Key(), got, want)
		}
		if cost.plan <= 0 || cost.plan > cost.run {
			t.Errorf("%s: plan %v of run %v", want.Key(), cost.plan, cost.run)
		}
		columnar[want.Algorithm] = columnar[want.Algorithm] || cost.columnar
		if want.Algorithm == "core" && !cost.columnar {
			t.Errorf("%s: not planned columnar under the timed plan", want.Key())
		}
	}
	if len(tap.recs) < 4 || !columnar["core"] || columnar["bracha"] {
		t.Errorf("%d trials, columnar by algorithm %v: want core columnar and bracha on the message path", len(tap.recs), columnar)
	}
}

func TestPercentiles(t *testing.T) {
	for n, want := range map[int]float64{3000: 99, 1000: 99, 999: 95, 200: 95, 199: 90, 100: 90, 40: 75, 39: 50, 5: 50} {
		if got := supportedPercentile(n); got != want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", n, got, want)
		}
	}
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 99: 10, 10: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", p, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25], and for
	// [1, 2] it is [0.75, 1.5, 2.25].
	if q1, q2, q3 := quartiles(v); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %g %g %g", q1, q2, q3)
	}
}

// TestOpenLoopCountsEveryDueRequest drives a handler far slower than the
// schedule: every due request must come back as sent late or as never sent,
// with its latency counted from the due time.
func TestOpenLoopCountsEveryDueRequest(t *testing.T) {
	const (
		n        = 30
		interval = 2 * time.Millisecond
		service  = 20 * time.Millisecond
		giveUp   = 50 * time.Millisecond
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte(r.Header.Get(idHeader)))
	}))
	defer srv.Close()
	g := newLanes(srv.URL, 1)
	defer g.close()
	replies := g.openLoop(n, interval, giveUp, func(i int) request {
		return request{method: http.MethodGet, path: "/", id: "r" + string(rune('A'+i))}
	})
	if len(replies) != n {
		t.Fatalf("%d replies for %d due requests", len(replies), n)
	}
	sent, late, unsent := 0, 0, 0
	for i, r := range replies {
		if r.index != i || r.due != time.Duration(i)*interval {
			t.Errorf("reply %d: index %d due %v", i, r.index, r.due)
		}
		if !r.wasSent() {
			unsent++
			continue
		}
		sent++
		if r.status != http.StatusOK || string(r.body) != "r"+string(rune('A'+i)) {
			t.Errorf("reply %d: status %d body %q", i, r.status, r.body)
		}
		if r.sent < r.due || r.sent-r.due > giveUp || r.done-r.due < service {
			t.Errorf("reply %d: due %v sent %v done %v", i, r.due, r.sent, r.done)
		}
		if r.sent-r.due > interval {
			late++
		}
	}
	if sent+unsent != n || late == 0 || unsent == 0 {
		t.Errorf("%d sent (%d late) and %d unsent of %d: want late ones and unsent ones, none lost", sent, late, unsent, n)
	}
}

// TestCompareVerdicts feeds -compare two sets of runs per verdict.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values map[string][]float64) string {
		path := filepath.Join(dir, name)
		for i := range values["setup_s"] {
			rep := report{Workload: workload{Name: "w"}, Result: result{Metrics: map[string]measured{}}}
			for m, v := range values {
				rep.Result.Metrics[m] = measured{Value: v[i]}
			}
			if err := appendLine(path, rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", map[string][]float64{
		"latency_p50_ms": {10, 10.1, 10.2}, "latency_p95_ms": {10, 20, 30}, "setup_s": {1, 1.01, 1.02}})
	b := write("b.jsonl", map[string][]float64{
		"latency_p50_ms": {20, 20.1, 20.2}, "latency_p95_ms": {11, 21, 31}, "setup_s": {1.01, 1.02, 1.03}})
	t.Chdir("..") // BENCHMARK.json
	var stdout, stderr bytes.Buffer
	if code := compareFiles(a, b, &stdout, &stderr); code != 1 {
		t.Errorf("exit code %d, want 1 for a regression\n%s%s", code, stdout.String(), stderr.String())
	}
	for metricName, verdict := range map[string]string{
		"latency_p50_ms": "regressed", "latency_p95_ms": "unresolved", "setup_s": "ok"} {
		found := false
		for _, line := range strings.Split(stdout.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == metricName {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("%s: want verdict %s in\n%s", metricName, verdict, stdout.String())
		}
	}
}

// TestBenchmarkJSONDeclaresWhatTheProgramReports keeps BENCHMARK.json and
// the program's tables the same.
func TestBenchmarkJSONDeclaresWhatTheProgramReports(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, the program has %v", names, want)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, the program reports %v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer %v, the program reports %v", decl.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", decl.Paths)
	}
}
