// Command lowerbound runs the Section 4/5 lower-bound experiments in
// isolation with tunable parameters: the exponential stall series, the
// survival curve, and the Z-set Hamming separation measurement.
//
// Usage:
//
//	lowerbound -mode stall -ns 8,16,24,32 -tfrac 0.125 -trials 20
//	lowerbound -mode survival -n 24 -t 3 -trials 40
//	lowerbound -mode separation -n 12 -t 1 -trials 20
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"asyncagree/internal/lowerbound"
	"asyncagree/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lowerbound:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lowerbound", flag.ContinueOnError)
	var (
		mode   = fs.String("mode", "stall", "stall | survival | separation")
		nsRaw  = fs.String("ns", "8,12,16,20,24", "comma-separated n values (stall mode)")
		tfrac  = fs.Float64("tfrac", 0.125, "t/n ratio (stall mode)")
		n      = fs.Int("n", 24, "processors (survival/separation modes)")
		t      = fs.Int("t", 3, "fault budget (survival/separation modes)")
		trials = fs.Int("trials", 20, "trials per configuration")
		maxW   = fs.Int("max-windows", 1000000, "window budget per trial")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *mode {
	case "stall":
		ns, err := parseInts(*nsRaw)
		if err != nil {
			return err
		}
		series, err := lowerbound.StallSeries(ns, *tfrac, *trials, *maxW)
		if err != nil {
			return err
		}
		table := stats.NewTable("n", "t", "mean-windows", "median", "p90", "max", "beaten-frac")
		for _, p := range series {
			table.AddRow(p.N, p.T, p.Summary.Mean(), p.Quantiles.Quantile(0.5), p.Quantiles.Quantile(0.9), p.Summary.Max(), p.GaveUpFraction)
		}
		fmt.Println(table.String())
		if fit, ok := lowerbound.FitGrowth(series); ok {
			fmt.Printf("fit: mean ~ %.3g * exp(%.4f n), R^2 = %.3f\n", fit.C, fit.Alpha, fit.R2)
		}
	case "survival":
		ws := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
		curve, err := lowerbound.SurvivalCurve(*n, *t, ws, *trials)
		if err != nil {
			return err
		}
		table := stats.NewTable("W", "P[no decision within W]")
		for i, w := range ws {
			table.AddRow(w, curve[i])
		}
		fmt.Println(table.String())
	case "separation":
		res, err := lowerbound.MeasureSeparation(*n, *t, *trials, *maxW)
		if err != nil {
			return err
		}
		fmt.Printf("n=%d t=%d |Z0_0|=%d |Z0_1|=%d Delta=%d claim(Delta > t)=%v\n",
			res.N, res.T, res.Z0Size, res.Z1Size, res.Distance, res.Holds)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad n list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
