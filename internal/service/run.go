package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"asyncagree/internal/registry"
	"asyncagree/internal/sim"
)

// Scenario is the client-facing description of one agreement configuration:
// which algorithm runs against which adversary under which delivery
// scheduler, at what (n, t) shape, from which input pattern. It is the unit
// of validation, quarantine, and instance identity.
type Scenario struct {
	Algorithm string `json:"algorithm"`
	Adversary string `json:"adversary,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	Input     string `json:"input,omitempty"`
	N         int    `json:"n"`
	T         int    `json:"t,omitempty"`
	// MaxWindows is the per-trial window budget (0 selects the server
	// default; server-capped).
	MaxWindows int `json:"max_windows,omitempty"`
	// Knobs supplies the adversary's declared tuning knobs positionally
	// (registry.Params.AdvKnobs); omit for historical behavior.
	Knobs []int `json:"knobs,omitempty"`
}

// normalize fills Scenario defaults in place.
func (sc *Scenario) normalize(cfg Config) {
	if sc.Adversary == "" {
		sc.Adversary = "full"
	}
	if sc.Scheduler == "" {
		sc.Scheduler = "adversary"
	}
	if sc.Input == "" {
		sc.Input = "split"
	}
	if sc.MaxWindows <= 0 {
		sc.MaxWindows = cfg.DefaultMaxWindows
	}
	if sc.MaxWindows > maxWindowsCap {
		sc.MaxWindows = maxWindowsCap
	}
}

// maxN is the largest processor count the service constructs: the largest
// shape any experiment or benchmark workload runs (E15's 4096:2). A System's
// allow bitset alone is n²/8 bytes, allocated before the first deadline poll
// can fire, so the bound has to be on the way in.
const maxN = 4096

// maxWindowsCap caps any request-supplied window budget.
const maxWindowsCap = 1 << 20

// validate rejects a scenario the registries cannot serve; the error text is
// the 400 body.
func (sc *Scenario) validate() error {
	alg, err := registry.LookupAlgorithm(sc.Algorithm)
	if err != nil {
		return err
	}
	advD, err := registry.LookupAdversary(sc.Adversary)
	if err != nil {
		return err
	}
	if _, err := registry.LookupScheduler(sc.Scheduler); err != nil {
		return err
	}
	if sc.N < 1 || sc.N > maxN {
		return fmt.Errorf("service: n must be in [1, %d], got %d", maxN, sc.N)
	}
	if sc.T < 0 {
		return fmt.Errorf("service: t must be >= 0, got %d", sc.T)
	}
	inputs, err := registry.Inputs(sc.Input, sc.N, 0)
	if err != nil {
		return err
	}
	p := registry.Params{N: sc.N, T: sc.T, Inputs: inputs, AdvKnobs: sc.Knobs}
	if err := alg.Validate(p); err != nil {
		return err
	}
	return advD.ValidateKnobs(p)
}

// key renders the scenario's stable identity — the quarantine and engine-pool
// granularity — matching the sweep pipeline's trial-key shape.
func (sc *Scenario) key() string {
	var b strings.Builder
	b.WriteString(sc.Algorithm)
	b.WriteByte('/')
	b.WriteString(sc.Adversary)
	b.WriteByte('/')
	b.WriteString(sc.Scheduler)
	b.WriteByte('/')
	b.WriteString(sc.Input)
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(sc.N))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(sc.T))
	for i, k := range sc.Knobs {
		if i == 0 {
			b.WriteByte('@')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(k))
	}
	return b.String()
}

// Result is one trial's outcome as served to clients: the sim.RunResult
// fields plus the fault classification when the trial did not complete
// cleanly. Fault fields marshal with omitempty so clean results serialize
// identically whether or not the server has ever seen a fault.
type Result struct {
	Windows       int    `json:"windows"`
	FirstDecision int    `json:"first_decision"`
	AllDecided    bool   `json:"all_decided"`
	Agreement     bool   `json:"agreement"`
	Validity      bool   `json:"validity"`
	Decision      int    `json:"decision"`
	MaxChain      int    `json:"max_chain"`
	FaultKind     string `json:"fault_kind,omitempty"`
	Fault         string `json:"fault,omitempty"`
}

// Clean reports whether the trial completed without a fault.
func (r Result) Clean() bool { return r.FaultKind == "" }

// fromRunResult copies the simulator summary into the wire shape.
func fromRunResult(res sim.RunResult) Result {
	return Result{
		Windows: res.Windows, FirstDecision: res.FirstDecision,
		AllDecided: res.AllDecided, Agreement: res.Agreement,
		Validity: res.Validity, Decision: int(res.Decision),
		MaxChain: res.MaxChainDepth,
	}
}

// faultCanceled classifies a request abandoned by its client (connection
// closed, load generator exited). It is reported like a fault but charged to
// nobody: the scenario's quarantine streak ignores it.
const faultCanceled = "canceled"

// RunRequest is the POST /run body: a scenario plus the per-request
// execution parameters.
type RunRequest struct {
	Scenario
	// Seed selects the trial's randomness; equal seeds give byte-identical
	// results.
	Seed uint64 `json:"seed"`
	// TimeoutMS optionally shortens (never extends) the server's per-request
	// deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// RunReply is the POST /run response body.
type RunReply struct {
	Scenario Scenario `json:"scenario"`
	Seed     uint64   `json:"seed"`
	Result   Result   `json:"result"`
}

// execute runs one trial of sc at seed through registry.RunContained and
// words the receipt for the wire: a panic (the engine already poisoned)
// comes back as FaultPanic, deadline expiry as FaultDeadline with the partial
// result, client cancellation as faultCanceled, and trial errors as
// FaultError. This front end only decides the watchdog: the request context,
// or the injected panic. onEvent, when non-nil, observes the trial's event
// stream (trace mode). The caller has already been admitted.
func (s *Server) execute(ctx context.Context, sc Scenario, seed uint64, onEvent func(sim.Event)) Result {
	if s.testHookPreExecute != nil {
		s.testHookPreExecute(ctx)
	}
	reqIndex := int(s.reqSeq.Add(1) - 1)
	injectPanic := s.cfg.InjectPanics.Contains(reqIndex)
	expired := func(windows int) bool {
		if injectPanic {
			panic(fmt.Sprintf("injected panic at request %d (window %d)", reqIndex, windows))
		}
		return windows%registry.DeadlineCheckInterval == 0 && ctx.Err() != nil
	}
	out := registry.RunContained(sc.Algorithm, sc.Adversary, sc.Scheduler, sc.Input,
		registry.Params{N: sc.N, T: sc.T, Seed: seed, AdvKnobs: sc.Knobs},
		sc.MaxWindows, expired, onEvent)

	switch out.Kind {
	case "":
		return fromRunResult(out.Result)
	case registry.FaultDeadline:
		res := fromRunResult(out.Result)
		if errors.Is(ctx.Err(), context.Canceled) {
			res.FaultKind = faultCanceled
			res.Fault = "client canceled the request"
		} else {
			res.FaultKind = registry.FaultDeadline
			res.Fault = fmt.Sprintf("deadline exceeded after %d windows", out.Result.Windows)
		}
		return res
	case registry.FaultPanic:
		s.poisoned.Add(1)
	}
	return Result{FaultKind: out.Kind, Fault: out.Fault}
}

// requestTimeout resolves the effective deadline for a request-supplied
// timeout_ms: the server ceiling, shortened by the client's ask.
func (s *Server) requestTimeout(timeoutMS int) time.Duration {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if c := time.Duration(timeoutMS) * time.Millisecond; c < d {
			d = c
		}
	}
	return d
}

// statusForFault maps a fault classification to its HTTP status.
func statusForFault(kind string) int {
	switch kind {
	case "":
		return http.StatusOK
	case registry.FaultDeadline:
		return http.StatusGatewayTimeout
	case faultCanceled:
		// 499 in the nginx tradition; the client is gone either way.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// handleRun serves POST /run: validate, admit, execute one trial, answer
// with the result (or stream NDJSON trace + result when ?trace=1).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	req.Scenario.normalize(s.cfg)
	if err := req.Scenario.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := req.Scenario.key()
	if reason, quarantined := s.quarantineCheck(key); quarantined {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: reason, Quarantined: true})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutMS))
	defer cancel()

	release, err := s.admit(ctx)
	if err != nil {
		s.answerAdmitError(w, err)
		return
	}
	defer release()

	if r.URL.Query().Get("trace") == "1" {
		s.runTraced(ctx, w, req, key)
		return
	}
	res := s.execute(ctx, req.Scenario, req.Seed, nil)
	s.noteOutcome(key, res.FaultKind)
	s.served.Add(1)
	writeJSON(w, statusForFault(res.FaultKind), RunReply{Scenario: req.Scenario, Seed: req.Seed, Result: res})
}

// answerAdmitError maps an admission failure to its HTTP answer.
func (s *Server) answerAdmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "draining: not admitting new requests")
	case errors.Is(err, errOverloaded):
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("overloaded: admission queue of %d is full", s.cfg.QueueDepth))
	default: // context expired while queued
		writeError(w, http.StatusGatewayTimeout, "timed out waiting for a worker: "+err.Error())
	}
}

// traceEvent is one NDJSON line of a streamed trace.
type traceEvent struct {
	Ev     string `json:"ev"`
	Window int    `json:"window,omitempty"`
	Proc   int    `json:"proc,omitempty"`
	From   int    `json:"from,omitempty"`
	To     int    `json:"to,omitempty"`
	Depth  int    `json:"depth,omitempty"`
	Value  int    `json:"value,omitempty"`
}

// traceFinal is the last NDJSON line of a streamed trace: the run's result.
type traceFinal struct {
	Ev     string `json:"ev"`
	Result Result `json:"result"`
}

// runTraced executes the trial while streaming its event trace as NDJSON,
// one event per line, ending with an {"ev":"result",...} line. The stream
// flushes on window boundaries so a slow consumer sees progress, and the
// status is committed (200) before execution — a mid-stream fault is
// reported in the final line, the only option once bytes have flowed.
func (s *Server) runTraced(ctx context.Context, w http.ResponseWriter, req RunRequest, key string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(bw)

	onEvent := func(ev sim.Event) {
		te := traceEvent{Window: ev.Window}
		switch ev.Kind {
		case sim.EvWindow:
			te.Ev = "window"
		case sim.EvSend:
			te.Ev, te.From, te.To, te.Depth = "send", int(ev.Msg.From), int(ev.Msg.To), ev.Msg.Depth
		case sim.EvDeliver:
			te.Ev, te.From, te.To, te.Depth = "deliver", int(ev.Msg.From), int(ev.Msg.To), ev.Msg.Depth
		case sim.EvReset:
			te.Ev, te.Proc = "reset", int(ev.Proc)
		case sim.EvCrash:
			te.Ev, te.Proc = "crash", int(ev.Proc)
		case sim.EvDecide:
			te.Ev, te.Proc, te.Value = "decide", int(ev.Proc), int(ev.Value)
		default:
			return
		}
		enc.Encode(te)
		if ev.Kind == sim.EvWindow {
			bw.Flush()
			if flusher != nil {
				flusher.Flush()
			}
		}
	}

	res := s.execute(ctx, req.Scenario, req.Seed, onEvent)
	s.noteOutcome(key, res.FaultKind)
	s.served.Add(1)
	enc.Encode(traceFinal{Ev: "result", Result: res})
	bw.Flush()
	if flusher != nil {
		flusher.Flush()
	}
}
