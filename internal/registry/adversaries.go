package registry

import (
	"fmt"

	"asyncagree/internal/adversary"
	"asyncagree/internal/sim"
)

func init() {
	mustRegisterAdversary(Adversary{
		Name:        "full",
		Description: "benign adversary: deliver everything, reset nobody",
		New: func(_ *Algorithm, _ Params) (sim.WindowAdversary, error) {
			return adversary.FullDelivery{}, nil
		},
	})

	mustRegisterAdversary(Adversary{
		Name:        "subsets",
		Description: "chaos scheduling: independent random (n-t)-subset deliveries, no resets",
		Imposes:     Lossy | PlansRows,
		New: func(_ *Algorithm, p Params) (sim.WindowAdversary, error) {
			return adversary.NewRandomWindows(p.Seed, 0, 0), nil
		},
	})

	mustRegisterAdversary(Adversary{
		Name:        "random",
		Description: "chaos + resets: random (n-t)-subset deliveries and up to t random resets per window",
		Imposes:     Lossy | Resetting | PlansRows,
		Knobs: []Knob{
			{Name: "resetpct", Description: "per-window reset probability, in percent", Min: 0, Max: 100, Default: 50},
			{Name: "maxresets", Description: "reset budget per window (always capped at the cell's t)", Min: 0, Max: 8, Default: 8},
		},
		New: func(_ *Algorithm, p Params) (sim.WindowAdversary, error) {
			// A nil knob vector is the exact historical construction; the
			// knobbed path reproduces it at the declared defaults for every
			// sweep-grid size (t <= 8, so min(8, t) = t).
			prob, budget := 0.5, p.T
			if p.AdvKnobs != nil {
				prob = float64(knob(p, 0, 50)) / 100
				if budget = knob(p, 1, 8); budget > p.T {
					budget = p.T
				}
			}
			return adversary.NewRandomWindows(p.Seed, prob, budget), nil
		},
	})

	mustRegisterAdversary(Adversary{
		Name:        "storm",
		Description: "reset storm: erase the memory of a rotating set of t processors every window",
		Imposes:     Resetting,
		New: func(_ *Algorithm, _ Params) (sim.WindowAdversary, error) {
			return adversary.NewResetStorm(), nil
		},
	})

	mustRegisterAdversary(Adversary{
		Name:        "silence",
		Description: "fixed silence: never deliver from the first t processors (Lemmas 11/13)",
		Imposes:     Starving | PlansRows,
		Knobs: []Knob{
			{Name: "offset", Description: "first silenced processor; the silent set is offset..offset+t-1 (mod n)", Min: 0, Max: 63, Default: 0},
		},
		New: func(_ *Algorithm, p Params) (sim.WindowAdversary, error) {
			off := knob(p, 0, 0)
			silent := make([]sim.ProcID, 0, p.T)
			for i := 0; i < p.T; i++ {
				id := off + i
				if p.N > 0 {
					id %= p.N // degenerate params fail NewFixedSilence's checks
				}
				silent = append(silent, sim.ProcID(id))
			}
			return adversary.NewFixedSilence(p.N, p.T, silent)
		},
	})

	mustRegisterAdversary(Adversary{
		Name:        "splitvote",
		Description: "Section 3 stalling strategy: show every processor an approximate split of the round's votes",
		Imposes:     Lossy | PlansRows | ReadsVotes,
		Knobs: []Knob{
			{Name: "capdelta", Description: "offset on the per-receiver vote cap (0 = the construction's cap, e.g. T3-1 for core)", Min: -6, Max: 2, Default: 0},
		},
		New: func(alg *Algorithm, p Params) (sim.WindowAdversary, error) {
			if alg.ClassifyVote == nil {
				return nil, fmt.Errorf("registry: split-vote adversary not defined for %q", alg.Name)
			}
			cap, err := alg.SplitVoteCap(p)
			if err != nil {
				return nil, err
			}
			if cap += knob(p, 0, 0); cap < 1 {
				cap = 1
			}
			return adversary.NewSplitVote(alg.ClassifyVote, cap), nil
		},
	})
}

// knob reads the i-th adversary knob value from p, falling back to def when
// the caller left the knobs at their defaults (nil AdvKnobs) or supplied a
// short vector (which ValidateKnobs rejects on every registry entry point;
// the bounds check here just keeps a direct New call from panicking).
func knob(p Params, i, def int) int {
	if i < len(p.AdvKnobs) {
		return p.AdvKnobs[i]
	}
	return def
}
