package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// declared is BENCHMARK.json as far as the comparison reads it.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readDeclared finds BENCHMARK.json in the working directory or, when the
// benchmark was started inside its own directory, one level up.
func readDeclared() (declared, error) {
	var d declared
	b, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		b, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(b, &d)
}

// quartiles are Python's statistics.quantiles(values, n=4): the exclusive
// method. It needs two values at least.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside 0..4 at the ends: extrapolation, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	return ratio(q3-q1, q2)
}

// readRuns collects the end-to-end values of the untraced runs of an -out
// file, by workload and metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<30) // a traced line carries its spans
	for sc.Scan() {
		var rep struct {
			Workload struct{ Name string } `json:"workload"`
			Traced   bool                  `json:"traced"`
			Result   result                `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Traced {
			continue
		}
		byMetric := runs[rep.Workload.Name]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			runs[rep.Workload.Name] = byMetric
		}
		for name, m := range rep.Result.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return runs, sc.Err()
}

// compareFiles prints one row per workload and end-to-end metric: whether
// the runs of file b are no worse than those of file a by more than the
// metric's bound. It returns 1 when any pair regressed.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	decl, err := readDeclared()
	if err == nil && len(decl.EndToEnd) == 0 {
		err = fmt.Errorf("BENCHMARK.json declares no end-to-end metrics")
	}
	var before, after map[string]map[string][]float64
	if err == nil {
		before, err = readRuns(a)
	}
	if err == nil {
		after, err = readRuns(b)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	var names []string
	for name := range before {
		if after[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	code := 0
	fmt.Fprintf(stdout, "%-15s %-15s %5s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "runs", "median a", "median b", "worse", "spread", "", "bound", "verdict")
	for _, name := range names {
		for _, m := range decl.EndToEnd {
			va, vb := before[name][m.Name], after[name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// worse is how far b's median is on the bad side of a's, as a
			// share of a's.
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case (sa > m.Bound || sb > m.Bound) && !allBetter(va, vb, m.Better):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(stdout, "%-15s %-15s %2d/%-2d %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				name, m.Name, len(va), len(vb), ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return code
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
