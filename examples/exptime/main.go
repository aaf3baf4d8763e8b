// Exptime: the other side of the paper — against a full-information
// adversary, agreement with perfect safety is *exponentially slow*
// (Section 3's closing argument, made inevitable by Theorem 5).
//
// The split-vote adversary shows every processor an approximate split of
// the round's votes, forcing everyone to flip fresh coins; it loses only
// when the coins come out so lopsided that hiding the majority no longer
// fits within the fault budget t. This example sweeps n at fixed t/n and
// prints the measured mean windows-to-decision with an exponential fit.
package main

import (
	"fmt"
	"log"

	"asyncagree"
	"asyncagree/internal/lowerbound"
)

func main() {
	// Small demo of the mechanism at one size first.
	cfg := asyncagree.Config{
		Algorithm: asyncagree.AlgorithmCore,
		N:         24, T: 3,
		Inputs: asyncagree.SplitInputs(24),
		Seed:   1,
	}
	adv, err := asyncagree.NewAdversary("splitvote", cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := asyncagree.Run(cfg, adv, 1000000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n=24 t=3 split inputs vs split-vote adversary: %d windows to first decision\n\n",
		res.FirstDecision)

	// The sweep: mean stall vs n (deterministic given seeds).
	ns := []int{8, 12, 16, 20, 24, 28}
	series, err := lowerbound.StallSeries(ns, 1.0/8, 15, 2000000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("n    t   mean-windows   median   max")
	for _, p := range series {
		fmt.Printf("%-4d %-3d %-14.1f %-8.1f %.0f\n",
			p.N, p.T, p.Summary.Mean(), p.Quantiles.Quantile(0.5), p.Summary.Max())
	}
	if fit, ok := lowerbound.FitGrowth(series); ok {
		fmt.Printf("\nexponential fit: mean ~ %.3g * exp(%.4f * n)   (R^2 = %.3f)\n", fit.C, fit.Alpha, fit.R2)
		fmt.Println("Theorem 5 says this shape is unavoidable for any algorithm with")
		fmt.Println("measure-one correctness and termination against the strongly adaptive adversary.")
	}
}
