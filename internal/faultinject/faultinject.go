// Package faultinject is the deterministic fault-injection harness behind
// cmd/sweep's -inject flags: it makes chosen trials panic, chosen trials
// stall past the watchdog deadline, and chosen sink/checkpoint writes fail,
// all reproducibly.
//
// The paper's whole point is that adversarial schedules force arbitrarily
// long executions, so the adversary-search sweeps this repository is growing
// toward will hit runaway trials, pathological cells, and multi-hour runs
// where any crash or failed write is expensive. The hardened trial pipeline
// (recover-and-quarantine in internal/registry, the stall watchdog in
// internal/sim, bounded retry in internal/retry) exists to absorb those
// faults — and this package exists to prove it: every knob is a pure
// function of the plan (explicit index sets, or seeded pseudo-random
// selections), so a chaos run can be replayed bit-for-bit and its surviving
// records diffed against a clean run's.
package faultinject

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"asyncagree/internal/rng"
)

// Plan describes one run's injected faults. The zero value (and nil)
// injects nothing. Plans are registry-visible: registry.RunOptions carries
// one so the trial executor can consult it on the run path.
type Plan struct {
	// Panic selects trials whose execution panics mid-run.
	Panic *TrialSet
	// Stall selects trials whose watchdog deadline fires (cooperatively, at
	// window StallWindow) regardless of wall-clock time.
	Stall *TrialSet
	// StallWindow is the window index at which injected stalls fire;
	// values below 1 behave as DefaultStallWindow.
	StallWindow int
}

// DefaultStallWindow is the window at which an injected stall fires when
// the plan does not say otherwise: late enough that the trial demonstrably
// ran, early enough that chaos runs stay fast.
const DefaultStallWindow = 3

// ShouldPanic reports whether trial i must panic.
func (p *Plan) ShouldPanic(i int) bool {
	return p != nil && p.Panic.Contains(i)
}

// ShouldStall reports whether trial i must stall, and at which window.
func (p *Plan) ShouldStall(i int) (window int, ok bool) {
	if p == nil || !p.Stall.Contains(i) {
		return 0, false
	}
	if p.StallWindow >= 1 {
		return p.StallWindow, true
	}
	return DefaultStallWindow, true
}

// Empty reports whether the plan injects nothing into the trial path.
func (p *Plan) Empty() bool {
	return p == nil || (p.Panic.empty() && p.Stall.empty())
}

// Materialize resolves seeded selections against the run's total trial
// count. It must be called once before the first Contains query; explicit
// sets pass through unchanged.
func (p *Plan) Materialize(total int) {
	if p == nil {
		return
	}
	p.Panic.materialize(total)
	p.Stall.materialize(total)
}

// TrialSet is a deterministic set of trial indices: explicit entries and
// ranges ("3,7,9-12"), or a seeded pseudo-random selection of k trials
// ("rand:5@42" — 5 trials chosen by seed 42 once the total is known).
type TrialSet struct {
	explicit map[int]bool
	randK    int
	randSeed uint64
}

// ParseTrialSet parses the -inject trial-selection syntax. An empty string
// yields nil (no trials).
func ParseTrialSet(s string) (*TrialSet, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if rest, ok := strings.CutPrefix(s, "rand:"); ok {
		kStr, seedStr, found := strings.Cut(rest, "@")
		if !found {
			return nil, fmt.Errorf("faultinject: bad seeded set %q (want rand:K@seed)", s)
		}
		k, err := strconv.Atoi(kStr)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("faultinject: bad seeded set %q: count must be a positive integer", s)
		}
		seed, err := strconv.ParseUint(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faultinject: bad seeded set %q: %v", s, err)
		}
		return &TrialSet{randK: k, randSeed: seed}, nil
	}
	set := &TrialSet{explicit: map[int]bool{}}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil || a < 0 {
			return nil, fmt.Errorf("faultinject: bad trial index %q (want non-negative integers, ranges, or rand:K@seed)", part)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil || b < a {
				return nil, fmt.Errorf("faultinject: bad trial range %q", part)
			}
		}
		// i == b terminates the walk (not i <= b): with b == MaxInt the
		// increment would wrap and the condition would never go false.
		for i := a; ; i++ {
			set.explicit[i] = true
			if i == b {
				break
			}
		}
	}
	if len(set.explicit) == 0 {
		return nil, fmt.Errorf("faultinject: empty trial set %q", s)
	}
	return set, nil
}

// Contains reports membership. Seeded sets must be materialized first.
func (s *TrialSet) Contains(i int) bool {
	return s != nil && s.explicit[i]
}

// Indices returns the materialized members in ascending order (reporting).
func (s *TrialSet) Indices() []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, len(s.explicit))
	for i := range s.explicit {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func (s *TrialSet) empty() bool { return s == nil || len(s.explicit) == 0 && s.randK == 0 }

// materialize resolves a seeded selection: a partial Fisher-Yates shuffle
// of [0, total) driven by an rng.Source seeded with the set's seed, so the
// chosen set is a pure function of (seed, k, total).
func (s *TrialSet) materialize(total int) {
	if s == nil || s.randK == 0 || s.explicit != nil {
		return
	}
	k := s.randK
	if k > total {
		k = total
	}
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	var src rng.Source
	src.Reseed(s.randSeed)
	s.explicit = make(map[int]bool, k)
	for i := 0; i < k; i++ {
		j := i + int(src.Uint64()%uint64(total-i))
		idx[i], idx[j] = idx[j], idx[i]
		s.explicit[idx[i]] = true
	}
}

// WriteFailures is a deterministic failure schedule over a writer's write
// operations, counted from 1 in call order: "3x2" fails writes 3 and 4,
// "9+" fails every write from 9 on (a permanent failure that exhausts any
// retry budget), and schedules compose with commas ("3x2,9+").
type WriteFailures struct {
	spans []failSpan
	seq   int
}

type failSpan struct {
	from, count int // count < 0 = forever
}

// ParseWriteFailures parses the write-failure schedule syntax. An empty
// string yields nil (no failures).
func ParseWriteFailures(s string) (*WriteFailures, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	wf := &WriteFailures{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if fromStr, ok := strings.CutSuffix(part, "+"); ok {
			from, err := strconv.Atoi(fromStr)
			if err != nil || from < 1 {
				return nil, fmt.Errorf("faultinject: bad write-failure span %q (want N+ with N >= 1)", part)
			}
			wf.spans = append(wf.spans, failSpan{from: from, count: -1})
			continue
		}
		fromStr, countStr, hasCount := strings.Cut(part, "x")
		from, err := strconv.Atoi(fromStr)
		if err != nil || from < 1 {
			return nil, fmt.Errorf("faultinject: bad write-failure span %q (want N, NxK, or N+)", part)
		}
		count := 1
		if hasCount {
			if count, err = strconv.Atoi(countStr); err != nil || count < 1 {
				return nil, fmt.Errorf("faultinject: bad write-failure count in %q", part)
			}
		}
		wf.spans = append(wf.spans, failSpan{from: from, count: count})
	}
	if len(wf.spans) == 0 {
		return nil, fmt.Errorf("faultinject: empty write-failure schedule %q", s)
	}
	return wf, nil
}

// next advances the operation counter and reports whether this write fails.
func (wf *WriteFailures) next() bool {
	wf.seq++
	for _, sp := range wf.spans {
		if wf.seq >= sp.from && (sp.count < 0 || wf.seq < sp.from+sp.count) {
			return true
		}
	}
	return false
}

// Writer wraps w so writes fail according to the schedule. A scheduled
// failure is atomic — nothing is written and an error is returned — which
// is exactly the shape a retrying writer above can absorb (each retry
// attempt advances the schedule, so "NxK" under an Attempts > K policy is
// a transient fault and "N+" a permanent one). A nil WriteFailures returns
// w unchanged.
func (wf *WriteFailures) Writer(w io.Writer) io.Writer {
	if wf == nil {
		return w
	}
	return &failingWriter{wf: wf, w: w}
}

type failingWriter struct {
	wf *WriteFailures
	w  io.Writer
}

func (f *failingWriter) Write(b []byte) (int, error) {
	if f.wf.next() {
		return 0, fmt.Errorf("faultinject: injected write failure (op %d)", f.wf.seq)
	}
	return f.w.Write(b)
}
