package service

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"

	"asyncagree/internal/stream"
)

// Instance is a named long-lived agreement configuration: a scenario pinned
// at creation plus the running aggregate of every successful trial driven
// through it. Run seq numbers are dense (1, 2, ...) and seed run k with
// seed = k, so the instance's entire state is a pure function of its
// scenario and successful-run count — the property journal replay and the
// kill/restart tests lean on. Faulted runs are reported to the caller but
// advance nothing and are never journaled.
type Instance struct {
	name string
	sc   Scenario

	// runs counts successful runs; the next run is seq runs+1.
	runs int
	// decided counts runs where all processors decided.
	decided int
	// windows aggregates window counts across successful runs.
	windows stream.Summary
	// maxChain aggregates max chain depth across successful runs.
	maxChain stream.Summary
	// last is the most recent successful run's result.
	last Result
	// digest is the FNV-1a fold of the instance's canonical history: the
	// create line plus one line per successful run. Two instances with equal
	// digests replayed the same runs in the same order — the byte-level
	// equality the crash-recovery property tests assert.
	digest uint64
}

// runRecord is one successful instance run, as journaled and as folded into
// the digest.
type runRecord struct {
	Seq    int    `json:"seq"`
	Seed   uint64 `json:"seed"`
	Result Result `json:"result"`
}

// newInstance builds an empty instance and seeds its digest with the
// canonical create line.
func newInstance(name string, sc Scenario) *Instance {
	inst := &Instance{name: name, sc: sc}
	inst.fold(fmt.Sprintf("create|%s|%s", name, sc.key()))
	return inst
}

// fold mixes one canonical history line into the digest.
func (inst *Instance) fold(line string) {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(inst.digest >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(line))
	inst.digest = h.Sum64()
}

// apply folds one successful run into the instance state. The caller
// guarantees rec.Seq == inst.runs+1 (journal replay verifies; the live path
// constructs it so).
func (inst *Instance) apply(rec runRecord) {
	inst.runs = rec.Seq
	if rec.Result.AllDecided {
		inst.decided++
	}
	inst.windows.Add(float64(rec.Result.Windows))
	inst.maxChain.Add(float64(rec.Result.MaxChain))
	inst.last = rec.Result
	r := rec.Result
	inst.fold(fmt.Sprintf("run|%d|%d|%d|%d|%t|%t|%t|%d|%d",
		rec.Seq, rec.Seed, r.Windows, r.FirstDecision,
		r.AllDecided, r.Agreement, r.Validity, r.Decision, r.MaxChain))
}

// InstanceState is the wire form of an instance: scenario, aggregates, and
// the state digest. It is deliberately deterministic — byte-identical for
// byte-identical histories — so the crash-recovery tests (and curious
// operators) can diff two servers' views directly.
type InstanceState struct {
	Name     string   `json:"name"`
	Scenario Scenario `json:"scenario"`
	Runs     int      `json:"runs"`
	Decided  int      `json:"decided"`
	// MeanWindows and MaxWindows summarize window counts over successful
	// runs (0 when no runs yet).
	MeanWindows float64 `json:"mean_windows"`
	MaxWindows  float64 `json:"max_windows"`
	// MeanMaxChain summarizes the Section 5 chain-depth measure.
	MeanMaxChain float64 `json:"mean_max_chain"`
	// Last is the most recent successful result.
	Last *Result `json:"last,omitempty"`
	// Digest is the canonical history digest, hex-rendered.
	Digest string `json:"digest"`
}

// state snapshots the instance's wire form. Callers hold s.mu.
func (inst *Instance) state() InstanceState {
	st := InstanceState{
		Name:     inst.name,
		Scenario: inst.sc,
		Runs:     inst.runs,
		Decided:  inst.decided,
		Digest:   fmt.Sprintf("%016x", inst.digest),
	}
	if inst.runs > 0 {
		st.MeanWindows = inst.windows.Mean()
		st.MaxWindows = inst.windows.Max()
		st.MeanMaxChain = inst.maxChain.Mean()
		last := inst.last
		st.Last = &last
	}
	return st
}

// CreateInstanceRequest is the PUT /instances/{name} body.
type CreateInstanceRequest struct {
	Scenario Scenario `json:"scenario"`
}

// InstanceRunReply is the POST /instances/{name}/run response: the run's
// own result plus the instance state after it.
type InstanceRunReply struct {
	Seq      int           `json:"seq"`
	Seed     uint64        `json:"seed"`
	Result   Result        `json:"result"`
	Instance InstanceState `json:"instance"`
}

// handleInstanceCreate serves PUT /instances/{name}: create (idempotently)
// a named instance. Creating an existing name with the same scenario is a
// no-op 200; with a different scenario it is a 409.
func (s *Server) handleInstanceCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "instance name must be non-empty")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining: not admitting new requests")
		return
	}
	var req CreateInstanceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	req.Scenario.normalize(s.cfg)
	if err := req.Scenario.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	if inst, ok := s.instances[name]; ok {
		same := inst.sc.key() == req.Scenario.key() && inst.sc.MaxWindows == req.Scenario.MaxWindows
		st := inst.state()
		s.mu.Unlock()
		if !same {
			writeError(w, http.StatusConflict,
				fmt.Sprintf("instance %q already exists with a different scenario", name))
			return
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	inst := newInstance(name, req.Scenario)
	s.instances[name] = inst
	st := inst.state()
	jerr := s.appendJournalLocked(journalRecord{Instance: name, Create: &inst.sc})
	s.mu.Unlock()

	if jerr != nil {
		// The instance exists in memory but its create was not made durable:
		// tell the caller, and /readyz is now degraded.
		writeError(w, http.StatusInternalServerError, "journal append failed: "+jerr.Error())
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// handleInstanceGet serves GET /instances/{name}.
func (s *Server) handleInstanceGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	inst, ok := s.instances[name]
	var st InstanceState
	if ok {
		st = inst.state()
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no instance %q", name))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleInstanceList serves GET /instances: every instance's state, sorted
// by name.
func (s *Server) handleInstanceList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	states := make([]InstanceState, 0, len(s.instances))
	for _, inst := range s.instances {
		states = append(states, inst.state())
	}
	s.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].Name < states[j].Name })
	writeJSON(w, http.StatusOK, struct {
		Instances []InstanceState `json:"instances"`
	}{states})
}

// handleInstanceRun serves POST /instances/{name}/run: execute the
// instance's next run (seq = runs+1, seed = seq — derived, not supplied, so
// replayed instances continue the exact same sequence) and fold a clean
// result into the instance. A faulted run is answered with its fault status
// and leaves the instance untouched.
func (s *Server) handleInstanceRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	inst, ok := s.instances[name]
	var sc Scenario
	var seq int
	if ok {
		sc = inst.sc
		seq = inst.runs + 1
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no instance %q", name))
		return
	}

	key := sc.key()
	if reason, quarantined := s.quarantineCheck(key); quarantined {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: reason, Quarantined: true})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(0))
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		s.answerAdmitError(w, err)
		return
	}
	defer release()

	seed := uint64(seq)
	res := s.execute(ctx, sc, seed, nil)
	s.noteOutcome(key, res.FaultKind)
	s.served.Add(1)

	if !res.Clean() {
		writeJSON(w, statusForFault(res.FaultKind), InstanceRunReply{
			Seq: seq, Seed: seed, Result: res,
		})
		return
	}

	rec := runRecord{Seq: seq, Seed: seed, Result: res}
	s.mu.Lock()
	// Concurrent runs of one instance serialize here: whoever commits its
	// seq first wins, and a run that executed against a stale seq is
	// rejected rather than folded in under a seed that no longer matches its
	// position — keeping seq == seed dense is what makes the instance state
	// a pure function of its run count, and therefore replayable.
	if inst.runs+1 != rec.Seq {
		s.mu.Unlock()
		writeError(w, http.StatusConflict,
			fmt.Sprintf("instance %q advanced concurrently; retry", name))
		return
	}
	inst.apply(rec)
	st := inst.state()
	jerr := s.appendJournalLocked(journalRecord{Instance: name, Run: &rec})
	s.mu.Unlock()

	if jerr != nil {
		writeError(w, http.StatusInternalServerError, "journal append failed: "+jerr.Error())
		return
	}
	writeJSON(w, http.StatusOK, InstanceRunReply{
		Seq: rec.Seq, Seed: rec.Seed, Result: res, Instance: st,
	})
}
