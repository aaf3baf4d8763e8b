// Command experiments regenerates the reproduction tables of EXPERIMENTS.md:
// one experiment per theorem or in-text quantitative claim of the paper
// (the paper has no numbered tables/figures; see DESIGN.md §5 for the
// index).
//
// Usage:
//
//	experiments                 # run all experiments at quick scale
//	experiments -scale full     # the EXPERIMENTS.md configuration (slow)
//	experiments -id E2          # run one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"asyncagree/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		id        = fs.String("id", "", "run only this experiment (e.g. E2); empty = all")
		scaleName = fs.String("scale", "quick", "quick | full")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale := experiments.ScaleQuick
	if *scaleName == "full" {
		scale = experiments.ScaleFull
	} else if *scaleName != "quick" {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	var exps []experiments.Experiment
	if *id != "" {
		e, err := experiments.Get(*id)
		if err != nil {
			return err
		}
		exps = []experiments.Experiment{e}
	} else {
		exps = experiments.All()
	}

	failed := 0
	for _, e := range exps {
		start := time.Now()
		res, err := e.Run(scale)
		fmt.Printf("== %s: %s (%.1fs)\n\n", e.ID, e.Title, time.Since(start).Seconds())
		if err != nil {
			fmt.Printf("ERROR: %v\n\n", err)
			failed++
			continue
		}
		fmt.Println(res.Table.String())
		for _, n := range res.Notes {
			fmt.Println("  " + n)
		}
		fmt.Println()
		if !res.Pass {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}
