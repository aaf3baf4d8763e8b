// Crashchains: Section 5 of the paper, live. Ben-Or's protocol is
// "forgetful" and "fully communicative" (Definitions 15 and 16), so
// Theorem 17 applies: against a classical crash-model adversary, its
// running time — measured as the longest message chain before a decision —
// is exponential in n.
//
// The adversary needs no crashes at all here: pure scheduling (showing each
// processor a near-even split of the round's reports) already forces fresh
// coin flips round after round. This example sweeps n and prints the
// measured chain lengths.
package main

import (
	"fmt"
	"log"

	"asyncagree"
	"asyncagree/internal/stats"
	"asyncagree/internal/stream"
)

func main() {
	fmt.Println("Ben-Or vs split-vote crash-model adversary (split inputs):")
	fmt.Println()
	fmt.Println("n    t   mean-chain   median   max")

	var xs, ys []float64
	for _, n := range []int{9, 13, 17, 21} {
		t := n / 4
		var chains stream.Summary
		quantiles := stream.NewReservoir(0)
		for seed := uint64(1); seed <= 12; seed++ {
			cfg := asyncagree.Config{
				Algorithm: asyncagree.AlgorithmBenOr,
				N:         n, T: t,
				Inputs: asyncagree.SplitInputs(n),
				Seed:   seed,
			}
			sys, err := asyncagree.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			// The registry tunes the split-vote adversary to Ben-Or's
			// vote classifier and floor(n/2) cap, fresh state per run.
			adv, err := asyncagree.NewAdversary("splitvote", cfg)
			if err != nil {
				log.Fatal(err)
			}
			res, err := sys.RunWindows(adv, 500000)
			if err != nil {
				log.Fatal(err)
			}
			if !res.Agreement || !res.Validity {
				log.Fatal("safety violated — impossible for honest Ben-Or")
			}
			chains.AddInt(res.MaxChainDepth)
			quantiles.AddInt(res.MaxChainDepth)
		}
		fmt.Printf("%-4d %-3d %-12.1f %-8.1f %.0f\n", n, t, chains.Mean(), quantiles.Quantile(0.5), chains.Max())
		xs = append(xs, float64(n))
		ys = append(ys, chains.Mean())
	}

	if fit, ok := stats.FitExponential(xs, ys); ok {
		fmt.Printf("\nfit: mean-chain ~ %.3g * exp(%.4f * n)   (R^2 = %.3f)\n", fit.C, fit.Alpha, fit.R2)
	}
	fmt.Println("\nTheorem 17: for any forgetful, fully communicative algorithm this growth")
	fmt.Println("is unavoidable — C*e^{alpha*n} message-chain length with probability >= 1/2.")
}
