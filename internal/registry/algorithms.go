package registry

import (
	"fmt"

	"asyncagree/internal/adversary"
	"asyncagree/internal/benor"
	"asyncagree/internal/bracha"
	"asyncagree/internal/committee"
	"asyncagree/internal/core"
	"asyncagree/internal/paxos"
	"asyncagree/internal/rbc"
	"asyncagree/internal/sim"
)

// resolveCoreThresholds returns p's explicit thresholds or the Theorem 4
// defaults, validated either way.
func resolveCoreThresholds(p Params) (core.Thresholds, error) {
	th := p.CoreThresholds
	if th == nil {
		def, err := core.DefaultThresholds(p.N, p.T)
		if err != nil {
			return core.Thresholds{}, err
		}
		th = &def
	}
	if err := th.Validate(p.N, p.T); err != nil {
		return core.Thresholds{}, err
	}
	return *th, nil
}

func init() {
	mustRegisterAlgorithm(Algorithm{
		Name:          "core",
		Description:   "the paper's Section 3 reset-tolerant threshold protocol (Theorem 4, t < n/6)",
		Runs:          map[Class]Promise{Lossy: Decides, Starving: Decides, Resetting: Decides},
		SafetyCertain: true,
		Validate: func(p Params) error {
			_, err := resolveCoreThresholds(p)
			return err
		},
		Factory: func(p Params) (func(sim.ProcID, sim.Bit) sim.Process, error) {
			th, err := resolveCoreThresholds(p)
			if err != nil {
				return nil, err
			}
			return core.NewFactory(p.N, p.T, th), nil
		},
		ClassifyVote: func(m sim.Message) adversary.VoteInfo {
			if _, v, ok := core.ExtractVote(m); ok {
				return adversary.VoteInfo{HasValue: true, Value: v}
			}
			return adversary.VoteInfo{}
		},
		SplitVoteCap: func(p Params) (int, error) {
			th, err := resolveCoreThresholds(p)
			if err != nil {
				return 0, err
			}
			return th.T3 - 1, nil
		},
	})

	mustRegisterAlgorithm(Algorithm{
		Name:          "benor",
		Description:   "Ben-Or 1983 randomized agreement (crash model, t < n/2)",
		Runs:          map[Class]Promise{Lossy: Decides, Starving: Decides},
		SafetyCertain: true,
		Validate: func(p Params) error {
			if p.T < 0 || 2*p.T >= p.N {
				return fmt.Errorf("registry: benor needs t < n/2, got n=%d t=%d", p.N, p.T)
			}
			return nil
		},
		Factory: func(p Params) (func(sim.ProcID, sim.Bit) sim.Process, error) {
			return benor.NewFactory(p.N, p.T), nil
		},
		ClassifyVote: func(m sim.Message) adversary.VoteInfo {
			if _, _, v, ok := benor.ExtractVote(m); ok {
				return adversary.VoteInfo{HasValue: true, Value: v}
			}
			return adversary.VoteInfo{}
		},
		SplitVoteCap: func(p Params) (int, error) { return p.N / 2, nil },
	})

	mustRegisterAlgorithm(Algorithm{
		Name:        "bracha",
		Description: "Bracha 1984 over reliable broadcast (Byzantine, t < n/3)",
		// Decides under Lossy and Starving is the paper's claim (Lemma 13);
		// the wedge at even n-t (DESIGN.md §6, "Known defects") is the
		// known gap.
		Runs:          map[Class]Promise{Lossy: Decides, Starving: Decides},
		SafetyCertain: true,
		Validate: func(p Params) error {
			if p.T < 0 || p.N <= 3*p.T || p.N > rbc.MaxMembers {
				return fmt.Errorf("registry: bracha needs 3t < n <= %d, got n=%d t=%d", rbc.MaxMembers, p.N, p.T)
			}
			return nil
		},
		Factory: func(p Params) (func(sim.ProcID, sim.Bit) sim.Process, error) {
			return bracha.NewFactory(p.N, p.T), nil
		},
	})

	mustRegisterAlgorithm(Algorithm{
		Name:        "committee",
		Description: "Kapron et al.-style committee election (fast, non-adaptive faults only, non-zero error probability)",
		Validate: func(p Params) error {
			if err := committee.Validate(p.N); err != nil {
				return err
			}
			if p.T < 0 || p.T >= p.N {
				return fmt.Errorf("registry: committee needs 0 <= t < n, got n=%d t=%d", p.N, p.T)
			}
			return nil
		},
		Factory: func(p Params) (func(sim.ProcID, sim.Bit) sim.Process, error) {
			return committee.NewFactory(p.N), nil
		},
	})

	mustRegisterAlgorithm(Algorithm{
		Name:          "paxos",
		Description:   "single-decree Paxos (deterministic; terminates only under benign scheduling)",
		Runs:          map[Class]Promise{Lossy: MayStall},
		SafetyCertain: true,
		Validate: func(p Params) error {
			if p.T < 0 || p.T >= p.N {
				return fmt.Errorf("registry: paxos needs 0 <= t < n, got n=%d t=%d", p.N, p.T)
			}
			for _, prop := range p.Proposers {
				if prop < 0 || int(prop) >= p.N {
					return fmt.Errorf("registry: paxos proposer %d out of range [0, %d)", prop, p.N)
				}
			}
			return nil
		},
		Factory: func(p Params) (func(sim.ProcID, sim.Bit) sim.Process, error) {
			proposers := p.Proposers
			if proposers == nil {
				proposers = []sim.ProcID{0}
			}
			return paxos.NewFactory(paxos.Params{N: p.N, Proposers: proposers}), nil
		},
	})
}
