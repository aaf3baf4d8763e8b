package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"asyncagree/internal/faultinject"
	"asyncagree/internal/registry"
)

// fastScenario is a quick, always-deciding configuration (the sweep tests'
// standard core cell).
func fastScenario() Scenario {
	return Scenario{Algorithm: "core", N: 12, T: 1, MaxWindows: 3000}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// doJSON posts body to path on the handler and returns the recorded
// response.
func doJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestRunEndpointDeterministic(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	req := RunRequest{Scenario: fastScenario(), Seed: 7}

	w1 := doJSON(t, s, "POST", "/run", req)
	if w1.Code != http.StatusOK {
		t.Fatalf("first run: status %d, body %s", w1.Code, w1.Body.String())
	}
	var rep RunReply
	if err := json.Unmarshal(w1.Body.Bytes(), &rep); err != nil {
		t.Fatalf("unmarshal reply: %v", err)
	}
	if !rep.Result.Clean() || !rep.Result.AllDecided || !rep.Result.Agreement || !rep.Result.Validity {
		t.Fatalf("run result not a clean decided trial: %+v", rep.Result)
	}

	// Same seed, byte-identical body (pooled engine reuse included).
	w2 := doJSON(t, s, "POST", "/run", req)
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("same-seed replies differ:\n%s\n%s", w1.Body.String(), w2.Body.String())
	}

	// The reply must match running the same trial directly on the engine.
	inputs, err := registry.Inputs("split", 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := registry.RunPooledTrial("core", "full", "adversary",
		registry.Params{N: 12, T: 1, Inputs: inputs, Seed: 7}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Result, fromRunResult(res); got != want {
		t.Fatalf("served result %+v != direct trial %+v", got, want)
	}
}

func TestRunValidationRejects(t *testing.T) {
	s := newTestServer(t, Config{})
	before := registry.EngineStatsSnapshot()
	cases := []RunRequest{
		{Scenario: Scenario{Algorithm: "nope", N: 12, T: 1}},
		{Scenario: Scenario{Algorithm: "core", Adversary: "nope", N: 12, T: 1}},
		{Scenario: Scenario{Algorithm: "core", N: 0, T: 0}},
		{Scenario: Scenario{Algorithm: "core", N: 12, T: 1, Knobs: []int{1, 2, 3}}},
	}
	for i, req := range cases {
		if w := doJSON(t, s, "POST", "/run", req); w.Code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400 (body %s)", i, w.Code, w.Body.String())
		}
	}

	// The size bounds answer with the limit they enforce, on both endpoints
	// that decode a scenario.
	tooWide := Scenario{Algorithm: "core", N: maxN + 1, T: 1}
	huge := json.RawMessage(`{"algorithm":"` + strings.Repeat("x", 2<<20) + `"}`)
	for _, c := range []struct {
		method, path string
		body         any
		want         string
	}{
		{"POST", "/run", RunRequest{Scenario: tooWide}, "[1, 4096]"},
		{"PUT", "/instances/wide", CreateInstanceRequest{Scenario: tooWide}, "[1, 4096]"},
		{"POST", "/run", huge, "1048576-byte limit"},
		{"PUT", "/instances/huge", huge, "1048576-byte limit"},
	} {
		w := doJSON(t, s, c.method, c.path, c.body)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), c.want) {
			t.Errorf("%s: status %d body %.200s, want 400 naming %q", c.path, w.Code, w.Body.String(), c.want)
		}
	}
	if after := registry.EngineStatsSnapshot(); after.Acquired != before.Acquired {
		t.Fatalf("rejected requests acquired %d engines, want 0", after.Acquired-before.Acquired)
	}

	// The bound itself is still served.
	atBound := RunRequest{Scenario: Scenario{Algorithm: "core", N: maxN, T: 2, MaxWindows: 1}}
	if w := doJSON(t, s, "POST", "/run", atBound); w.Code != http.StatusOK {
		t.Fatalf("n=%d: status %d, want 200 (body %s)", maxN, w.Code, w.Body.String())
	}
}

// TestOverloadShedsWith503: with every worker pinned and the queue full,
// the next arrival is shed immediately with 503 + Retry-After; it does not
// wait, and the queue never grows past its bound.
func TestOverloadShedsWith503(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	s.testHookPreExecute = func(context.Context) { <-gate }

	// Pin the single worker.
	workerDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { workerDone <- doJSON(t, s, "POST", "/run", RunRequest{Scenario: fastScenario()}) }()
	waitFor(t, func() bool { return s.inflight.Load() == 1 })

	// Fill the one queue slot.
	queuedDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { queuedDone <- doJSON(t, s, "POST", "/run", RunRequest{Scenario: fastScenario()}) }()
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	// The next arrival must shed, now, with Retry-After.
	start := time.Now()
	w := doJSON(t, s, "POST", "/run", RunRequest{Scenario: fastScenario()})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("overload status %d, want 503 (body %s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shedding took %v; load shedding must not wait", elapsed)
	}
	if got := s.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	if got := s.queued.Load(); got != 1 {
		t.Fatalf("queue depth after shed = %d, want still 1 (bounded)", got)
	}

	// Unblock: both admitted requests complete cleanly.
	close(gate)
	for _, ch := range []chan *httptest.ResponseRecorder{workerDone, queuedDone} {
		if w := <-ch; w.Code != http.StatusOK {
			t.Fatalf("admitted request finished %d, body %s", w.Code, w.Body.String())
		}
	}
}

// TestDrainFinishesInFlight: StartDrain flips /readyz to 503 and rejects
// new work while the in-flight request runs to completion.
func TestDrainFinishesInFlight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	s.testHookPreExecute = func(context.Context) { <-gate }

	inFlight := make(chan *httptest.ResponseRecorder, 1)
	go func() { inFlight <- doJSON(t, s, "POST", "/run", RunRequest{Scenario: fastScenario()}) }()
	waitFor(t, func() bool { return s.inflight.Load() == 1 })

	// Ready before the drain...
	if w := doJSON(t, s, "GET", "/readyz", nil); w.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", w.Code)
	}
	s.StartDrain()
	// ...503 after, with draining visible in the body.
	w := doJSON(t, s, "GET", "/readyz", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", w.Code)
	}
	var st ReadyState
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Draining || st.Ready {
		t.Fatalf("readyz body %+v, want draining and not ready", st)
	}

	// New work is refused at admission.
	if w := doJSON(t, s, "POST", "/run", RunRequest{Scenario: fastScenario()}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("run during drain: %d, want 503", w.Code)
	}
	if w := doJSON(t, s, "PUT", "/instances/x", CreateInstanceRequest{Scenario: fastScenario()}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("instance create during drain: %d, want 503", w.Code)
	}

	// The request admitted before the drain still completes cleanly.
	close(gate)
	if w := <-inFlight; w.Code != http.StatusOK {
		t.Fatalf("in-flight request finished %d during drain, body %s", w.Code, w.Body.String())
	}
}

// TestDeadlineBecomes504: a request whose deadline expires mid-trial comes
// back as a 504 FaultDeadline with the partial result, and the worker is
// freed for the next request.
func TestDeadlineBecomes504(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.testHookPreExecute = func(ctx context.Context) { <-ctx.Done() }

	w := doJSON(t, s, "POST", "/run", RunRequest{Scenario: fastScenario(), TimeoutMS: 20})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", w.Code, w.Body.String())
	}
	var rep RunReply
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Result.FaultKind != registry.FaultDeadline {
		t.Fatalf("fault kind %q, want %q", rep.Result.FaultKind, registry.FaultDeadline)
	}

	// The worker must be free again: a normal request succeeds.
	s.testHookPreExecute = nil
	if w := doJSON(t, s, "POST", "/run", RunRequest{Scenario: fastScenario()}); w.Code != http.StatusOK {
		t.Fatalf("follow-up run: %d, body %s", w.Code, w.Body.String())
	}
}

// TestPanicPoisonsAndQuarantines: injected panics come back as structured
// 500s, poison their engines (never re-pooled), and after the threshold the
// scenario is quarantined — further requests get an immediate 503 marked
// quarantined, and /readyz lists the scenario.
func TestPanicPoisonsAndQuarantines(t *testing.T) {
	inject, err := faultinject.ParseTrialSet("0,1,2")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, QuarantineAfter: 3, InjectPanics: inject})
	before := registry.EngineStatsSnapshot()

	for i := 0; i < 3; i++ {
		w := doJSON(t, s, "POST", "/run", RunRequest{Scenario: fastScenario(), Seed: uint64(i)})
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("panic run %d: status %d, want 500 (body %s)", i, w.Code, w.Body.String())
		}
		var rep RunReply
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Result.FaultKind != registry.FaultPanic || !strings.Contains(rep.Result.Fault, "injected panic") {
			t.Fatalf("panic run %d result: %+v", i, rep.Result)
		}
	}

	after := registry.EngineStatsSnapshot()
	if got := after.Poisoned - before.Poisoned; got != 3 {
		t.Fatalf("poisoned engines = %d, want 3", got)
	}

	// Fourth request: quarantined without executing.
	w := doJSON(t, s, "POST", "/run", RunRequest{Scenario: fastScenario(), Seed: 9})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("quarantined run: status %d, want 503 (body %s)", w.Code, w.Body.String())
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if !eb.Quarantined {
		t.Fatalf("503 body not marked quarantined: %+v", eb)
	}

	// readyz lists the quarantined scenario but stays ready: one bad
	// scenario must not take the whole server out of rotation.
	rw := doJSON(t, s, "GET", "/readyz", nil)
	if rw.Code != http.StatusOK {
		t.Fatalf("readyz with quarantine: %d, want 200", rw.Code)
	}
	var st ReadyState
	if err := json.Unmarshal(rw.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	key := fastScenario()
	key.normalize(s.cfg)
	if len(st.Quarantined) != 1 || st.Quarantined[0] != key.key() {
		t.Fatalf("readyz quarantined = %v, want [%s]", st.Quarantined, key.key())
	}
	if st.PoisonedEngines != 3 || st.Faulted != 3 {
		t.Fatalf("readyz counters %+v, want 3 poisoned / 3 faulted", st)
	}

	// A different scenario is unaffected.
	other := fastScenario()
	other.Adversary = "storm"
	if w := doJSON(t, s, "POST", "/run", RunRequest{Scenario: other}); w.Code != http.StatusOK {
		t.Fatalf("other scenario after quarantine: %d, body %s", w.Code, w.Body.String())
	}
}

// TestCleanRunResetsFaultStreak: scattered faults never quarantine.
func TestCleanRunResetsFaultStreak(t *testing.T) {
	inject, err := faultinject.ParseTrialSet("0,2,4")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, QuarantineAfter: 3, InjectPanics: inject})
	for i := 0; i < 6; i++ {
		w := doJSON(t, s, "POST", "/run", RunRequest{Scenario: fastScenario(), Seed: uint64(i)})
		wantPanic := i%2 == 0
		if wantPanic && w.Code != http.StatusInternalServerError {
			t.Fatalf("run %d: status %d, want 500", i, w.Code)
		}
		if !wantPanic && w.Code != http.StatusOK {
			t.Fatalf("run %d: status %d, want 200 (body %s)", i, w.Code, w.Body.String())
		}
	}
	if q := s.quarantinedKeys(); len(q) != 0 {
		t.Fatalf("scattered faults quarantined %v", q)
	}
}

// TestQuarantineLedgerKeepsOnlyFaults: clean scenarios leave no entry in the
// quarantine ledger, and a clean run after a fault removes the entry its
// fault opened, so serving many distinct scenarios does not grow it.
func TestQuarantineLedgerKeepsOnlyFaults(t *testing.T) {
	inject, err := faultinject.ParseTrialSet("4")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, QuarantineAfter: 3, InjectPanics: inject})
	ledger := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.quar)
	}
	for i, adv := range []string{"full", "storm", "random", "splitvote"} {
		sc := fastScenario()
		sc.Adversary = adv
		if w := doJSON(t, s, "POST", "/run", RunRequest{Scenario: sc, Seed: uint64(i)}); w.Code != http.StatusOK {
			t.Fatalf("clean %s run: status %d, body %s", adv, w.Code, w.Body.String())
		}
	}
	if n := ledger(); n != 0 {
		t.Fatalf("%d ledger entries after four clean scenarios, want 0", n)
	}
	faulting := fastScenario()
	faulting.Adversary = "silence"
	if w := doJSON(t, s, "POST", "/run", RunRequest{Scenario: faulting}); w.Code != http.StatusInternalServerError {
		t.Fatalf("injected panic: status %d, want 500", w.Code)
	}
	if n := ledger(); n != 1 {
		t.Fatalf("%d ledger entries after one fault, want 1", n)
	}
	if w := doJSON(t, s, "POST", "/run", RunRequest{Scenario: faulting, Seed: 1}); w.Code != http.StatusOK {
		t.Fatalf("clean run after the fault: status %d, body %s", w.Code, w.Body.String())
	}
	if n := ledger(); n != 0 {
		t.Fatalf("%d ledger entries after the streak ended, want 0", n)
	}
}

// TestTraceStreamsNDJSON: ?trace=1 streams per-event NDJSON lines ending in
// a result line that matches the untraced run.
func TestTraceStreamsNDJSON(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	plain := doJSON(t, s, "POST", "/run", RunRequest{Scenario: fastScenario(), Seed: 3})
	if plain.Code != http.StatusOK {
		t.Fatalf("plain run: %d", plain.Code)
	}
	var plainRep RunReply
	if err := json.Unmarshal(plain.Body.Bytes(), &plainRep); err != nil {
		t.Fatal(err)
	}

	w := doJSON(t, s, "POST", "/run?trace=1", RunRequest{Scenario: fastScenario(), Seed: 3})
	if w.Code != http.StatusOK {
		t.Fatalf("traced run: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("traced Content-Type %q", ct)
	}
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var events, windows, decides int
	var final *traceFinal
	for sc.Scan() {
		var probe struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch probe.Ev {
		case "result":
			var tf traceFinal
			if err := json.Unmarshal(sc.Bytes(), &tf); err != nil {
				t.Fatal(err)
			}
			final = &tf
		case "window":
			windows++
			events++
		case "decide":
			decides++
			events++
		default:
			events++
		}
	}
	if final == nil {
		t.Fatal("trace stream missing final result line")
	}
	if final.Result != plainRep.Result {
		t.Fatalf("traced result %+v != plain result %+v", final.Result, plainRep.Result)
	}
	if windows != plainRep.Result.Windows {
		t.Fatalf("trace window events = %d, result windows = %d", windows, plainRep.Result.Windows)
	}
	if decides == 0 || events == 0 {
		t.Fatalf("trace too sparse: %d events, %d decides", events, decides)
	}

	// Tracing must not leak the event hook into the pool: a later pooled
	// run still matches.
	again := doJSON(t, s, "POST", "/run", RunRequest{Scenario: fastScenario(), Seed: 3})
	if !bytes.Equal(plain.Body.Bytes(), again.Body.Bytes()) {
		t.Fatalf("post-trace run differs from pre-trace run:\n%s\n%s", plain.Body.String(), again.Body.String())
	}
}

// TestInstanceLifecycle: create, idempotent re-create, scenario conflict,
// run sequence with derived seeds, and deterministic state digests.
func TestInstanceLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	if w := doJSON(t, s, "GET", "/instances/a", nil); w.Code != http.StatusNotFound {
		t.Fatalf("missing instance GET: %d, want 404", w.Code)
	}
	if w := doJSON(t, s, "POST", "/instances/a/run", nil); w.Code != http.StatusNotFound {
		t.Fatalf("missing instance run: %d, want 404", w.Code)
	}

	create := CreateInstanceRequest{Scenario: fastScenario()}
	if w := doJSON(t, s, "PUT", "/instances/a", create); w.Code != http.StatusCreated {
		t.Fatalf("create: %d, body %s", w.Code, w.Body.String())
	}
	// Idempotent re-create.
	if w := doJSON(t, s, "PUT", "/instances/a", create); w.Code != http.StatusOK {
		t.Fatalf("re-create: %d", w.Code)
	}
	// Conflicting scenario.
	other := create
	other.Scenario.Adversary = "storm"
	if w := doJSON(t, s, "PUT", "/instances/a", other); w.Code != http.StatusConflict {
		t.Fatalf("conflicting create: %d, want 409", w.Code)
	}

	var lastDigest string
	for seq := 1; seq <= 3; seq++ {
		w := doJSON(t, s, "POST", "/instances/a/run", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("run %d: %d, body %s", seq, w.Code, w.Body.String())
		}
		var rep InstanceRunReply
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Seq != seq || rep.Seed != uint64(seq) {
			t.Fatalf("run %d: seq %d seed %d, want derived seq=seed=%d", seq, rep.Seq, rep.Seed, seq)
		}
		if !rep.Result.Clean() {
			t.Fatalf("run %d faulted: %+v", seq, rep.Result)
		}
		if rep.Instance.Runs != seq {
			t.Fatalf("run %d: instance runs %d", seq, rep.Instance.Runs)
		}
		if rep.Instance.Digest == lastDigest {
			t.Fatalf("run %d did not advance the digest", seq)
		}
		lastDigest = rep.Instance.Digest
	}

	// A second server driven identically reaches the same digest: instance
	// state is a pure function of scenario and run count.
	s2 := newTestServer(t, Config{Workers: 1})
	if w := doJSON(t, s2, "PUT", "/instances/a", create); w.Code != http.StatusCreated {
		t.Fatalf("create on s2: %d", w.Code)
	}
	var rep2 InstanceRunReply
	for seq := 1; seq <= 3; seq++ {
		w := doJSON(t, s2, "POST", "/instances/a/run", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("s2 run %d: %d", seq, w.Code)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &rep2); err != nil {
			t.Fatal(err)
		}
	}
	if rep2.Instance.Digest != lastDigest {
		t.Fatalf("independent server digest %s != %s", rep2.Instance.Digest, lastDigest)
	}

	// List shows the instance.
	lw := doJSON(t, s, "GET", "/instances", nil)
	var list struct {
		Instances []InstanceState `json:"instances"`
	}
	if err := json.Unmarshal(lw.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Instances) != 1 || list.Instances[0].Name != "a" || list.Instances[0].Runs != 3 {
		t.Fatalf("instance list %+v", list.Instances)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	w := doJSON(t, s, "GET", "/healthz", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}
}

// waitFor polls cond to true, failing the test after a generous timeout.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScenarioKeyShape pins the quarantine/identity key format.
func TestScenarioKeyShape(t *testing.T) {
	sc := Scenario{Algorithm: "core", Adversary: "random", Scheduler: "seeded",
		Input: "zeros", N: 9, T: 2, Knobs: []int{30, 2}}
	if got, want := sc.key(), "core/random/seeded/zeros/9:2@30,2"; got != want {
		t.Fatalf("key = %q, want %q", got, want)
	}
	sc.Knobs = nil
	if got, want := sc.key(), "core/random/seeded/zeros/9:2"; got != want {
		t.Fatalf("key = %q, want %q", got, want)
	}
}

// TestScenarioNormalize: normalize fills an unset window budget with the
// server default and clamps one above maxWindowsCap to the cap.
func TestScenarioNormalize(t *testing.T) {
	cfg := Config{}.withDefaults()
	for _, c := range []struct{ in, want int }{
		{0, cfg.DefaultMaxWindows},
		{500, 500},
		{maxWindowsCap, maxWindowsCap},
		{maxWindowsCap + 1, maxWindowsCap},
	} {
		sc := Scenario{Algorithm: "core", N: 12, MaxWindows: c.in}
		sc.normalize(cfg)
		if sc.MaxWindows != c.want {
			t.Fatalf("max_windows %d normalizes to %d, want %d", c.in, sc.MaxWindows, c.want)
		}
	}
}
