package registry

// Class is a set of plan classes, one or several or-ed together: the three
// fault classes first, in the order Pair checks them, then two structural
// bits. Adversaries and schedulers declare the classes they impose; each
// algorithm, in Runs, whether it must decide under each fault class.
type Class uint8

// The plan classes.
const (
	// Lossy windows deliver each receiver only some of the window's
	// messages and drop the rest (subsets, random, splitvote; seeded,
	// laggard).
	Lossy Class = 1 << iota
	// Starving windows withhold the same senders from every receiver, for
	// good or periodically (silence; ascmin, alternate).
	Starving
	// Resetting windows erase the memory of up to t processors (random,
	// storm).
	Resetting
	// PlansRows marks a plan that writes each receiver's sender row itself:
	// an adversary whose strategy lives in its rows, or a scheduler that
	// replaces the adversary's. Two such plans never pair.
	PlansRows
	// ReadsVotes marks an adversary that classifies the algorithm's votes:
	// it pairs only with an algorithm that has ClassifyVote.
	ReadsVotes
)

// unpaired is why Pair leaves a triple unpaired, by the class that fails
// its check; fixed texts keep the sweep's expansion free of allocations.
var unpaired = map[Class]string{
	Lossy:      "the algorithm does not declare class Lossy",
	Starving:   "the algorithm does not declare class Starving",
	Resetting:  "the algorithm does not declare class Resetting",
	PlansRows:  "the adversary and the scheduler both plan the rows",
	ReadsVotes: "the algorithm has no vote classifier",
}

// Promise is what a triple promises about termination.
type Promise uint8

const (
	// Unpaired means the sweep does not run the triple. It is the zero
	// value, so Runs gives it for every class an algorithm does not list.
	Unpaired Promise = iota
	// Decides means the paper's claims include termination: every trial
	// must decide, and the conformance battery asserts it.
	Decides
	// MayStall means the claims cover safety only: a trial may never
	// decide (Paxos when a lossy plan drops the lone proposer's messages).
	MayStall
)

// Pair is the one pairing check, for the sweep matrix, the search,
// cmd/agree and the experiments alike: the termination promise of the named
// triple, or Unpaired and why. A triple is paired iff the adversary and the
// scheduler do not both plan the rows, an adversary that reads votes meets a
// vote classifier, and the algorithm lists every fault class the two impose.
// Its promise is MayStall if any of those classes maps to MayStall, and
// Decides otherwise, so full delivery, which imposes none, always decides.
// No pairing depends on the size, so Pair takes names only.
func Pair(alg, adv, sched string) (promise Promise, why string, err error) {
	a, err := LookupAlgorithm(alg)
	if err != nil {
		return Unpaired, "", err
	}
	ad, err := LookupAdversary(adv)
	if err != nil {
		return Unpaired, "", err
	}
	s, err := LookupScheduler(sched)
	if err != nil {
		return Unpaired, "", err
	}
	imposed := ad.Imposes | s.Imposes
	switch {
	case ad.Imposes&s.Imposes&PlansRows != 0:
		return Unpaired, unpaired[PlansRows], nil
	case imposed&ReadsVotes != 0 && a.ClassifyVote == nil:
		return Unpaired, unpaired[ReadsVotes], nil
	}
	promise = Decides
	for c := Lossy; c <= Resetting; c <<= 1 {
		if imposed&c == 0 {
			continue
		}
		switch a.Runs[c] {
		case Unpaired:
			return Unpaired, unpaired[c], nil
		case MayStall:
			promise = MayStall
		}
	}
	return promise, "", nil
}
