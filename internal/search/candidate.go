package search

import (
	"fmt"
	"strconv"
	"strings"

	"asyncagree/internal/registry"
	"asyncagree/internal/rng"
)

// Candidate is one point of the adversary search space: an adversary, the
// delivery scheduler spliced over it, and a value for each of the
// adversary's declared knobs (nil when it declares none). Evaluating a
// candidate runs registry trials with Params.AdvKnobs = Knobs.
type Candidate struct {
	// Adversary is the registry key of the candidate's adversary.
	Adversary string `json:"adversary"`
	// Scheduler is the registry key of the candidate's delivery scheduler.
	Scheduler string `json:"scheduler"`
	// Knobs holds one value per knob the adversary declares, positionally
	// (registry.Adversary.Knobs order); empty for knobless adversaries.
	Knobs []int `json:"knobs,omitempty"`
}

// Key renders the candidate's stable identity, e.g.
// "splitvote/adversary[-2]". It doubles as the deterministic tie-breaker of
// the frontier ranking.
func (c Candidate) Key() string {
	var b strings.Builder
	b.WriteString(c.Adversary)
	b.WriteByte('/')
	b.WriteString(c.Scheduler)
	if len(c.Knobs) > 0 {
		b.WriteByte('[')
		for i, v := range c.Knobs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(v))
		}
		b.WriteByte(']')
	}
	return b.String()
}

// pairing is one paired (adversary, scheduler) axis point of the
// candidate space, with the adversary's knob specs along for enumeration.
type pairing struct {
	adv   *registry.Adversary
	sched string
}

// pairings enumerates the (adversary, scheduler) pairings the sweep matrix
// would expand for the algorithm, restricted to the requested name lists, in
// deterministic (adversary-major) order.
func pairings(alg string, advNames, schedNames []string) ([]pairing, error) {
	var out []pairing
	for _, advName := range advNames {
		adv, err := registry.LookupAdversary(advName)
		if err != nil {
			return nil, err
		}
		for _, schedName := range schedNames {
			promise, _, err := registry.Pair(alg, advName, schedName)
			if err != nil {
				return nil, err
			}
			if promise == registry.Unpaired {
				continue
			}
			out = append(out, pairing{adv: adv, sched: schedName})
		}
	}
	return out, nil
}

// gridValues returns the coarse-stage probe values of one knob: min,
// default, and max, ascending and deduplicated.
func gridValues(k registry.Knob) []int {
	var out []int
	for _, v := range []int{k.Min, k.Default, k.Max} {
		dup := false
		for _, o := range out {
			if o == v {
				dup = true
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	sortInts(out)
	return out
}

// sortInts is a tiny insertion sort (knob probe lists have <= 3 entries).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// gridCandidates expands the coarse stage: for every pairing, the cross
// product of each knob's {min, default, max} probe values, in deterministic
// order. Knobless pairings contribute their single registered construction.
func gridCandidates(prs []pairing) []Candidate {
	var out []Candidate
	for _, pr := range prs {
		knobs := pr.adv.Knobs
		if len(knobs) == 0 {
			out = append(out, Candidate{Adversary: pr.adv.Name, Scheduler: pr.sched})
			continue
		}
		values := make([][]int, len(knobs))
		for i, k := range knobs {
			values[i] = gridValues(k)
		}
		cur := make([]int, len(knobs))
		var rec func(i int)
		rec = func(i int) {
			if i == len(knobs) {
				out = append(out, Candidate{Adversary: pr.adv.Name, Scheduler: pr.sched,
					Knobs: append([]int(nil), cur...)})
				return
			}
			for _, v := range values[i] {
				cur[i] = v
				rec(i + 1)
			}
		}
		rec(0)
	}
	return out
}

// refineStep is the knob step size of refinement round r (1-based): half
// the coarse grid spacing, halving again each round, never below 1.
func refineStep(k registry.Knob, r int) int {
	step := (k.Max - k.Min) >> uint(r+1)
	if step < 1 {
		step = 1
	}
	return step
}

// neighbors expands one frontier candidate for refinement round r: each
// knob stepped up and down by the round's step (clamped to its range), one
// knob at a time.
func neighbors(adv *registry.Adversary, c Candidate, r int) []Candidate {
	var out []Candidate
	for i, k := range adv.Knobs {
		step := refineStep(k, r)
		for _, dir := range []int{-1, 1} {
			v := c.Knobs[i] + dir*step
			if v < k.Min {
				v = k.Min
			}
			if v > k.Max {
				v = k.Max
			}
			if v == c.Knobs[i] {
				continue
			}
			knobs := append([]int(nil), c.Knobs...)
			knobs[i] = v
			out = append(out, Candidate{Adversary: c.Adversary, Scheduler: c.Scheduler, Knobs: knobs})
		}
	}
	return out
}

// mutate derives one evolutionary offspring from a frontier candidate: a
// seeded random knob jitter, or a swap to another compatible scheduler for
// the same adversary. Returns false when the candidate has no mutable axis.
func mutate(src *rng.Source, prs []pairing, c Candidate) (Candidate, bool) {
	adv := findAdversary(prs, c.Adversary)
	if adv == nil {
		return Candidate{}, false
	}
	scheds := schedulersFor(prs, c.Adversary)
	// Jitter a knob twice as often as swapping the scheduler; knobless
	// candidates can only swap, single-scheduler knobless ones not even that.
	swapOnly := len(adv.Knobs) == 0
	if swapOnly && len(scheds) < 2 {
		return Candidate{}, false
	}
	if !swapOnly && (len(scheds) < 2 || src.Intn(3) < 2) {
		i := src.Intn(len(adv.Knobs))
		k := adv.Knobs[i]
		jit := (k.Max - k.Min) / 8
		if jit < 1 {
			jit = 1
		}
		delta := src.Intn(2*jit+1) - jit
		if delta == 0 {
			delta = 1 - 2*src.Intn(2) // never a no-op jitter
		}
		v := c.Knobs[i] + delta
		if v < k.Min {
			v = k.Min
		}
		if v > k.Max {
			v = k.Max
		}
		knobs := append([]int(nil), c.Knobs...)
		knobs[i] = v
		return Candidate{Adversary: c.Adversary, Scheduler: c.Scheduler, Knobs: knobs}, true
	}
	// Scheduler swap: pick uniformly among the other compatible disciplines.
	pick := src.Intn(len(scheds) - 1)
	for _, name := range scheds {
		if name == c.Scheduler {
			continue
		}
		if pick == 0 {
			return Candidate{Adversary: c.Adversary, Scheduler: name,
				Knobs: append([]int(nil), c.Knobs...)}, true
		}
		pick--
	}
	return Candidate{}, false
}

// immigrant draws a uniform random candidate from the whole space — the
// exploration component of the evolutionary stage.
func immigrant(src *rng.Source, prs []pairing) Candidate {
	pr := prs[src.Intn(len(prs))]
	c := Candidate{Adversary: pr.adv.Name, Scheduler: pr.sched}
	if len(pr.adv.Knobs) > 0 {
		c.Knobs = make([]int, len(pr.adv.Knobs))
		for i, k := range pr.adv.Knobs {
			c.Knobs[i] = k.Min + src.Intn(k.Max-k.Min+1)
		}
	}
	return c
}

// findAdversary resolves a candidate's adversary descriptor from the
// pairing list (nil when the adversary appears in no pairing).
func findAdversary(prs []pairing, name string) *registry.Adversary {
	for _, pr := range prs {
		if pr.adv.Name == name {
			return pr.adv
		}
	}
	return nil
}

// schedulersFor lists the schedulers paired with the adversary, in pairing
// order.
func schedulersFor(prs []pairing, advName string) []string {
	var out []string
	for _, pr := range prs {
		if pr.adv.Name == advName {
			out = append(out, pr.sched)
		}
	}
	return out
}

// validateCandidate checks a candidate against the registry before it is
// scheduled, so a malformed knob vector fails the search with a clear error
// instead of a per-trial fault.
func validateCandidate(c Candidate) error {
	adv, err := registry.LookupAdversary(c.Adversary)
	if err != nil {
		return err
	}
	if _, err := registry.LookupScheduler(c.Scheduler); err != nil {
		return err
	}
	if err := adv.ValidateKnobs(registry.Params{AdvKnobs: knobsOrNil(c.Knobs)}); err != nil {
		return fmt.Errorf("search: candidate %s: %w", c.Key(), err)
	}
	return nil
}

// knobsOrNil normalizes an empty knob slice to nil (the registry's "all
// defaults" encoding).
func knobsOrNil(knobs []int) []int {
	if len(knobs) == 0 {
		return nil
	}
	return knobs
}
