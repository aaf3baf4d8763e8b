package registry

import (
	"asyncagree/internal/sched"
	"asyncagree/internal/sim"
)

// Scheduler is a self-describing delivery-scheduler entry wrapping an
// internal/sched strategy: the axis of the scenario space that decides
// *which* ≥ n−t senders each receiver admits per acceptable window.
type Scheduler struct {
	// Name is the stable registry key (e.g. "adversary", "ascmin").
	Name string
	// Description is a one-line human summary for CLI listings.
	Description string
	// Compatible reports whether the sweep matrix should expand this
	// scheduler spliced into the (alg, adv) pairing. Schedulers that
	// override sender sets must reject adversaries whose strategy lives in
	// those sets (Adversary.PlansSenders) and algorithms whose guarantees
	// the discipline voids (e.g. lossy delivery against NeedsFullDelivery).
	Compatible func(alg *Algorithm, adv *Adversary, p Params) bool
	// New returns FRESH scheduler state for one trial. Implementations
	// must never return a shared instance: schedulers carry mutable
	// per-execution state (rotation cursors, rng streams, reusable
	// scratch) and trials run concurrently. The pooled trial engine reuses
	// an instance whose type has RecycleTrial(seed uint64) and rebuilds any
	// other with New, exactly as for Adversary.New.
	New func(p Params) (sched.Scheduler, error)
}

// RegisterScheduler adds a scheduler descriptor. Names must be unique;
// Compatible and New are mandatory.
func RegisterScheduler(s Scheduler) error {
	if s.Name == "" || s.Compatible == nil || s.New == nil {
		return schedulers.incomplete(s.Name)
	}
	return schedulers.add(s.Name, s)
}

func mustRegisterScheduler(s Scheduler) { schedulers.must(s.Name, RegisterScheduler(s)) }

// Schedulers returns the registered scheduler descriptors in registration
// order. The returned slice is a copy; the descriptors are shared and must
// not be mutated.
func Schedulers() []*Scheduler { return schedulers.all() }

// SchedulerNames returns the registered scheduler names in registration
// order.
func SchedulerNames() []string { return schedulers.allNames() }

// LookupScheduler resolves a name.
func LookupScheduler(name string) (*Scheduler, error) { return schedulers.lookup(name) }

// NewScheduler constructs fresh per-trial state for the named scheduler.
func NewScheduler(name string, p Params) (sched.Scheduler, error) {
	s, err := LookupScheduler(name)
	if err != nil {
		return nil, err
	}
	return s.New(p)
}

// NewScheduledAdversary constructs the full window plan of one trial: fresh
// adversary state for advName tuned to algName, with its delivery
// discipline overridden by fresh schedName scheduler state (the "adversary"
// scheduler keeps the adversary's own sender sets byte-identically).
func NewScheduledAdversary(advName, schedName, algName string, p Params) (sim.WindowAdversary, error) {
	adv, err := NewAdversary(advName, algName, p)
	if err != nil {
		return nil, err
	}
	sch, err := NewScheduler(schedName, p)
	if err != nil {
		return nil, err
	}
	return sched.Compose(adv, sch), nil
}

// SchedulerCompatible reports whether the sweep matrix would splice the
// named scheduler into the named (algorithm, adversary) pairing at p.
func SchedulerCompatible(schedName, advName, algName string, p Params) (bool, error) {
	s, err := LookupScheduler(schedName)
	if err != nil {
		return false, err
	}
	ad, err := LookupAdversary(advName)
	if err != nil {
		return false, err
	}
	a, err := LookupAlgorithm(algName)
	if err != nil {
		return false, err
	}
	return s.Compatible(a, ad, p), nil
}

// overridesSenders is the baseline compatibility check shared by every
// scheduler that replaces the adversary's sender sets: the adversary's
// strategy must not live in those sets.
func overridesSenders(_ *Algorithm, adv *Adversary, _ Params) bool {
	return !adv.PlansSenders
}

// lossyCompatible is the compatibility check for schedulers that may drop
// messages: on top of overridesSenders, the algorithm must not assume every
// message is eventually delivered (window mode drops each window's
// undelivered remainder, so a lossy discipline can wedge such an algorithm
// forever).
func lossyCompatible(alg *Algorithm, adv *Adversary, p Params) bool {
	return overridesSenders(alg, adv, p) && !alg.NeedsFullDelivery
}

// silencingCompatible is the compatibility check for schedulers that starve
// a fixed sender set persistently: the algorithm must additionally tolerate
// silenced processors (a persistent starvation can pin a committee group or
// the lone Paxos proposer forever).
func silencingCompatible(alg *Algorithm, adv *Adversary, p Params) bool {
	return lossyCompatible(alg, adv, p) && alg.SilenceTolerant
}

func init() {
	mustRegisterScheduler(Scheduler{
		Name:        "adversary",
		Description: "delivery chosen by the adversary's own window plan (the pre-scheduler default)",
		Compatible:  func(*Algorithm, *Adversary, Params) bool { return true },
		New: func(Params) (sched.Scheduler, error) {
			return sched.AdversaryDriven{}, nil
		},
	})

	// "full" pairs only with adversaries that plan no sender sets, whose
	// window plans are therefore already full delivery — its sweep cells
	// deliberately mirror the "adversary" cells trial for trial. It stays
	// in the matrix so the scheduler axis is self-contained, and in the
	// registry so explicit runs (cmd/agree, E14, the facade) can force
	// full delivery as a named baseline.
	mustRegisterScheduler(Scheduler{
		Name:        "full",
		Description: "deliver every message to every receiver",
		Compatible:  overridesSenders,
		New: func(Params) (sched.Scheduler, error) {
			return sched.FullDelivery{}, nil
		},
	})

	mustRegisterScheduler(Scheduler{
		Name:        "ascmin",
		Description: "exactly the n-t lowest senders for every receiver (persistent top-t starvation)",
		Compatible:  silencingCompatible,
		New: func(Params) (sched.Scheduler, error) {
			return sched.NewAscendingMinimal(), nil
		},
	})

	mustRegisterScheduler(Scheduler{
		Name:        "seeded",
		Description: "independent random (n-t)-subset per receiver per window, deterministic per trial seed",
		Compatible:  lossyCompatible,
		New: func(p Params) (sched.Scheduler, error) {
			return sched.NewSeededRandom(p.Seed), nil
		},
	})

	mustRegisterScheduler(Scheduler{
		Name:        "laggard",
		Description: "starve a rotating t-subset for an epoch of windows, then rotate (bounded unfairness)",
		Compatible:  lossyCompatible,
		New: func(Params) (sched.Scheduler, error) {
			return sched.NewLaggard(0, 0), nil
		},
	})

	mustRegisterScheduler(Scheduler{
		Name:        "alternate",
		Description: "full delivery on even windows, ascending-minimal on odd ones",
		Compatible:  silencingCompatible,
		New: func(Params) (sched.Scheduler, error) {
			return sched.NewAlternate(), nil
		},
	})
}
