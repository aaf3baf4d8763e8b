// Package service implements the failure-first agreement serving layer: a
// long-running HTTP surface over the pooled trial engine (internal/registry)
// that serves one-shot agreement requests and named long-lived instances to
// many concurrent clients.
//
// The package assumes from the start that anything may misbehave — the
// request, the trial, the pool, the disk, the client — and contains each
// failure with a receipt, mirroring the sweep pipeline's fault taxonomy
// (DESIGN.md §4a):
//
//   - Admission is bounded: at most Workers trials execute at once and at
//     most QueueDepth requests wait; everything beyond that is shed
//     immediately with 503 + Retry-After instead of queueing without bound.
//   - Every request runs under a cooperative deadline (the per-window
//     watchdog of sim.RunWindowsUntil), so a runaway scenario becomes a
//     504 with a partial result, never a wedged worker.
//   - A panicking trial is recovered, reported as a 500 carrying the fault,
//     and its engine is poisoned (registry.TrialEngine.Poison) so the
//     corrupt instance can never be re-served from the pool.
//   - Scenarios that fault repeatedly are quarantined: further requests for
//     them are rejected with 503 until the process restarts, and the
//     quarantine list is surfaced on /readyz.
//   - Named instances persist to an append-only journal in the checkpoint
//     salvage format; a killed-and-restarted server replays the verified
//     prefix and resumes byte-identically (see journal.go).
//   - Draining (SIGTERM in cmd/agreed) stops admission, flips /readyz to
//     503, lets in-flight requests finish, and flushes the journal.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asyncagree/internal/faultinject"
	"asyncagree/internal/registry"
)

// Config parameterizes a Server. The zero value is usable: every field has
// a serving-grade default.
type Config struct {
	// Workers bounds the number of concurrently executing trials (default
	// GOMAXPROCS). Each worker drives one pooled TrialEngine at a time.
	Workers int
	// QueueDepth bounds the admission queue: requests beyond the executing
	// Workers wait here, and arrivals past the bound are shed with 503 +
	// Retry-After (default 64).
	QueueDepth int
	// RequestTimeout is the per-request wall-clock deadline, enforced
	// cooperatively on window boundaries; a request-supplied timeout_ms may
	// shorten but never extend it (default 30s).
	RequestTimeout time.Duration
	// DefaultMaxWindows is the per-trial window budget when the scenario
	// does not set one (default 20000, matching the sweep grid).
	DefaultMaxWindows int
	// QuarantineAfter quarantines a scenario after this many consecutive
	// faulted requests (default 3; negative disables quarantine).
	QuarantineAfter int
	// JournalPath persists named instances to an append-only journal at
	// this path; empty keeps them in memory only.
	JournalPath string
	// InjectPanics selects global request indices whose trials panic — the
	// deterministic chaos hook behind cmd/agreed -inject-panics, exercising
	// the poisoned-engine and quarantine paths end to end.
	InjectPanics *faultinject.TrialSet
}

// withDefaults fills unset Config fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DefaultMaxWindows <= 0 {
		c.DefaultMaxWindows = 20000
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = registry.DefaultQuarantineAfter
	}
	return c
}

// Server is the agreement service: an http.Handler serving /run, the
// /instances tree, and the /healthz//readyz probes. Construct with New,
// drain with StartDrain, and Close after the HTTP server has shut down.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// sem holds one token per executing trial; admission blocks here after
	// passing the queue bound.
	sem      chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool

	// reqSeq numbers admitted trial executions process-wide — the index the
	// fault-injection hook selects on.
	reqSeq atomic.Int64

	served   atomic.Int64
	shed     atomic.Int64
	faulted  atomic.Int64
	poisoned atomic.Int64

	mu        sync.Mutex
	quar      map[string]*scenarioHealth
	instances map[string]*Instance

	// testHookPreExecute, when non-nil, runs at the top of execute while the
	// worker slot is held — tests use it as a slow-trial stand-in to pin
	// workers busy (overload, drain, and deadline shapes are all about what
	// happens while a worker is occupied).
	testHookPreExecute func(ctx context.Context)

	journal *journal // nil = no persistence
	salvage string   // journal salvage summary from startup, "" if pristine
}

// scenarioHealth tracks per-scenario consecutive faults for quarantine.
type scenarioHealth struct {
	consec      int
	quarantined bool
	reason      string
}

// New builds a Server, opening and replaying the journal when
// Config.JournalPath is set: named instances recorded by an earlier
// process — killed or cleanly drained — are restored to exactly the state
// their journaled prefix proves.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.Workers),
		quar:      map[string]*scenarioHealth{},
		instances: map[string]*Instance{},
	}
	if cfg.JournalPath != "" {
		j, recs, salvage, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.journal = j
		if !salvage.Empty() {
			s.salvage = salvage.String()
		}
		for _, rec := range recs {
			if err := s.replay(rec); err != nil {
				j.Close()
				return nil, fmt.Errorf("service: %s: %w", cfg.JournalPath, err)
			}
		}
	}
	s.routes()
	return s, nil
}

// replay folds one journal record into the instance map during startup.
func (s *Server) replay(rec journalRecord) error {
	switch {
	case rec.Create != nil:
		if _, ok := s.instances[rec.Instance]; ok {
			return fmt.Errorf("journal record %d recreates instance %q", rec.Index, rec.Instance)
		}
		if err := rec.Create.validate(); err != nil {
			return fmt.Errorf("journal record %d creates instance %q: %w", rec.Index, rec.Instance, err)
		}
		s.instances[rec.Instance] = newInstance(rec.Instance, *rec.Create)
	case rec.Run != nil:
		inst, ok := s.instances[rec.Instance]
		if !ok {
			return fmt.Errorf("journal record %d runs unknown instance %q", rec.Index, rec.Instance)
		}
		if rec.Run.Seq != inst.runs+1 {
			return fmt.Errorf("journal record %d has seq %d for instance %q, want %d",
				rec.Index, rec.Run.Seq, rec.Instance, inst.runs+1)
		}
		inst.apply(*rec.Run)
	default:
		return fmt.Errorf("journal record %d has neither create nor run body", rec.Index)
	}
	return nil
}

// SalvageSummary reports what journal damage startup had to salvage ("" if
// the journal was pristine or absent) so the daemon can log it.
func (s *Server) SalvageSummary() string { return s.salvage }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDrain stops admission: every subsequent request (and /readyz probe)
// gets 503 while in-flight requests run to completion. The caller then
// shuts the HTTP server down with its drain deadline and calls Close.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close flushes and closes the journal. Call it after the HTTP server has
// finished shutting down, so no handler can append concurrently.
func (s *Server) Close() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}

// routes installs the handler table.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /instances", s.handleInstanceList)
	mux.HandleFunc("PUT /instances/{name}", s.handleInstanceCreate)
	mux.HandleFunc("GET /instances/{name}", s.handleInstanceGet)
	mux.HandleFunc("POST /instances/{name}/run", s.handleInstanceRun)
	s.mux = mux
}

// Admission errors.
var (
	errDraining   = errors.New("service: draining, not admitting requests")
	errOverloaded = errors.New("service: admission queue full")
)

// admit reserves a worker slot, waiting in the bounded queue when all
// workers are busy. It fails fast when the server is draining or the queue
// is full (load shedding — the caller answers 503 + Retry-After), and
// respects ctx while waiting. The returned release must be called exactly
// once when the trial is done.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.shed.Add(1)
		return nil, errOverloaded
	}
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
		s.inflight.Add(1)
		return func() {
			s.inflight.Add(-1)
			<-s.sem
		}, nil
	case <-ctx.Done():
		s.queued.Add(-1)
		return nil, ctx.Err()
	}
}

// quarantineCheck returns the quarantine reason for a scenario key, if any.
func (s *Server) quarantineCheck(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.quar[key]; h != nil && h.quarantined {
		return h.reason, true
	}
	return "", false
}

// noteOutcome updates a scenario's fault streak after a request: a clean
// result ends it, a fault advances it and quarantines the scenario at the
// threshold. Client cancellations are not charged to the scenario. The
// ledger holds only scenarios with a live streak or a quarantine, so a
// long-running server does not grow an entry per scenario it ever served.
func (s *Server) noteOutcome(key string, faultKind string) {
	if faultKind == faultCanceled {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.quar[key]
	if faultKind == "" {
		if h == nil || !h.quarantined {
			delete(s.quar, key)
		}
		return
	}
	if h == nil {
		h = &scenarioHealth{}
		s.quar[key] = h
	}
	s.faulted.Add(1)
	h.consec++
	if s.cfg.QuarantineAfter > 0 && h.consec >= s.cfg.QuarantineAfter && !h.quarantined {
		h.quarantined = true
		h.reason = fmt.Sprintf("scenario quarantined after %d consecutive faults (last: %s)",
			h.consec, faultKind)
	}
}

// quarantinedKeys returns the sorted quarantined scenario keys.
func (s *Server) quarantinedKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k, h := range s.quar {
		if h.quarantined {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// ReadyState is the /readyz body: the serving posture plus the pool,
// queue, quarantine, and journal state a load balancer or operator needs to
// decide whether to route here.
type ReadyState struct {
	// Ready mirrors the HTTP status: true iff the server is admitting.
	Ready bool `json:"ready"`
	// Draining reports an in-progress graceful shutdown.
	Draining bool `json:"draining"`
	// Workers and QueueDepth echo the admission bounds.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// Inflight and Queued are the current admission occupancy.
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	// Served, Shed, and Faulted count completed, load-shed, and faulted
	// requests since startup.
	Served  int64 `json:"served"`
	Shed    int64 `json:"shed"`
	Faulted int64 `json:"faulted"`
	// PoisonedEngines counts engines discarded after panicking trials.
	PoisonedEngines int64 `json:"poisoned_engines"`
	// Quarantined lists quarantined scenario keys, sorted.
	Quarantined []string `json:"quarantined,omitempty"`
	// Instances is the named-instance count.
	Instances int `json:"instances"`
	// Journal reports persistence health: "" (no journal), "ok", or
	// "degraded: <error>" once an append has failed.
	Journal string `json:"journal,omitempty"`
}

// readyState assembles the current ReadyState.
func (s *Server) readyState() ReadyState {
	s.mu.Lock()
	instances := len(s.instances)
	s.mu.Unlock()
	st := ReadyState{
		Draining:        s.draining.Load(),
		Workers:         s.cfg.Workers,
		QueueDepth:      s.cfg.QueueDepth,
		Inflight:        s.inflight.Load(),
		Queued:          s.queued.Load(),
		Served:          s.served.Load(),
		Shed:            s.shed.Load(),
		Faulted:         s.faulted.Load(),
		PoisonedEngines: s.poisoned.Load(),
		Quarantined:     s.quarantinedKeys(),
		Instances:       instances,
	}
	if s.journal != nil {
		if err := s.journal.Err(); err != nil {
			st.Journal = "degraded: " + err.Error()
		} else {
			st.Journal = "ok"
		}
	}
	st.Ready = !st.Draining && (st.Journal == "" || st.Journal == "ok")
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := s.readyState()
	w.Header().Set("Content-Type", "application/json")
	if !st.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(st)
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	// Quarantined marks scenario-quarantine rejections so clients can stop
	// retrying (the 503 is not transient for this scenario).
	Quarantined bool `json:"quarantined,omitempty"`
}

// writeError writes a JSON error with the given status; 503s advertise
// Retry-After so well-behaved clients back off instead of hammering.
func writeError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorBody{Error: msg})
}

// maxBodyBytes bounds a request body; the largest legitimate one is a
// scenario with a handful of knobs.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body, at most maxBodyBytes of it, into v; on
// failure it has answered 400 and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	msg := "bad request body: " + err.Error()
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		msg = fmt.Sprintf("bad request body: larger than the %d-byte limit", tooLarge.Limit)
	}
	writeError(w, http.StatusBadRequest, msg)
	return false
}
