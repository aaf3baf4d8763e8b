package registry

import (
	"fmt"

	"asyncagree/internal/adversary"
	"asyncagree/internal/benor"
	"asyncagree/internal/bracha"
	"asyncagree/internal/committee"
	"asyncagree/internal/core"
	"asyncagree/internal/paxos"
	"asyncagree/internal/sim"
)

// validateCommittee checks the committee algorithm's default
// parameterization at n processors. Beyond the structural Params.Validate
// checks, the promoted survivors must be numerous enough that the final
// committee's internal Bracha instance is feasible (survivors > 3*GroupT);
// below that — n < 27 with the defaults — every processor wedges on an
// infeasible final agreement and the run can never decide. Last, t must
// satisfy sim.New's 0 <= t < n.
func validateCommittee(p Params) error {
	params := committee.DefaultParams(p.N)
	if err := params.Validate(); err != nil {
		return err
	}
	numGroups := p.N / params.GroupSize
	if numGroups == 0 {
		numGroups = 1
	}
	if survivors := numGroups * params.SurvivorsPerGroup; survivors <= 3*params.GroupT {
		return fmt.Errorf("registry: committee with n=%d promotes only %d survivors, need > %d for a feasible final committee",
			p.N, survivors, 3*params.GroupT)
	}
	if p.T < 0 || p.T >= p.N {
		return fmt.Errorf("registry: committee needs 0 <= t < n, got n=%d t=%d", p.N, p.T)
	}
	return nil
}

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
		Name:            "core",
		Description:     "the paper's Section 3 reset-tolerant threshold protocol (Theorem 4, t < n/6)",
		Modes:           ModeWindow | ModeStep,
		ResetTolerant:   true,
		SilenceTolerant: true,
		SafetyCertain:   true,
		ColumnarVotes:   true,
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
		Name:            "benor",
		Description:     "Ben-Or 1983 randomized agreement (crash model, t < n/2)",
		Modes:           ModeWindow | ModeStep,
		SilenceTolerant: true,
		SafetyCertain:   true,
		ColumnarVotes:   true,
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
		Name:            "bracha",
		Description:     "Bracha 1984 over reliable broadcast (Byzantine, t < n/3)",
		Modes:           ModeWindow,
		SilenceTolerant: true,
		SafetyCertain:   true,
		Validate: func(p Params) error {
			if p.T < 0 || p.N <= 3*p.T {
				return fmt.Errorf("registry: bracha needs n > 3t, got n=%d t=%d", p.N, p.T)
			}
			return nil
		},
		Factory: func(p Params) (func(sim.ProcID, sim.Bit) sim.Process, error) {
			return bracha.NewFactory(p.N, p.T), nil
		},
	})

	mustRegisterAlgorithm(Algorithm{
		Name:              "committee",
		Description:       "Kapron et al.-style committee election (fast, non-adaptive faults only, non-zero error probability)",
		Modes:             ModeWindow,
		NeedsFullDelivery: true,
		Validate:          validateCommittee,
		Factory: func(p Params) (func(sim.ProcID, sim.Bit) sim.Process, error) {
			return committee.NewFactory(committee.DefaultParams(p.N)), nil
		},
	})

	mustRegisterAlgorithm(Algorithm{
		Name:                  "paxos",
		Description:           "single-decree Paxos (deterministic; terminates only under benign scheduling)",
		Modes:                 ModeWindow | ModeStep,
		SafetyCertain:         true,
		BenignTerminationOnly: true,
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
