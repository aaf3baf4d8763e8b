package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// scenario is one agreement configuration as the service's JSON names it.
type scenario struct {
	Algorithm string `json:"algorithm"`
	Adversary string `json:"adversary"`
	Scheduler string `json:"scheduler"`
	Input     string `json:"input"`
	N         int    `json:"n"`
	T         int    `json:"t"`
}

// serveSpec is one serve workload: a closed-loop phase that finds the
// capacity, then an open-loop phase at a fixed rate below it.
type serveSpec struct {
	// Light and Heavy are the scenarios of the mix. A block of requests
	// holds LightEach of every light scenario and HeavyEach of every heavy
	// one; the workload seed orders each block.
	Light     []scenario `json:"light"`
	Heavy     []scenario `json:"heavy"`
	LightEach int        `json:"light_each"`
	HeavyEach int        `json:"heavy_each"`
	// Journal selects the instance routes: every scenario becomes a named,
	// journaled instance, half the requests run it and half read it.
	Journal bool `json:"journal"`
	// RateRPS is the open-loop rate; LimitMS the latency limit there.
	RateRPS int `json:"rate_rps"`
	LimitMS int `json:"limit_ms"`
	// ClosedShare is the part of the run's time given to the closed loop.
	ClosedShare float64 `json:"closed_share"`
	// MaxWindows is the service's default window budget (cmd/agreed's).
	MaxWindows int `json:"max_windows"`
}

func (s serveSpec) scenarios() []scenario {
	return append(append([]scenario(nil), s.Light...), s.Heavy...)
}

// Phases of a serve workload. Each has trial seeds (or instances) of its
// own, so that what the open loop asks for does not depend on how far the
// closed loop got.
const (
	phaseWarm   = "warm"
	phaseClosed = "cap"
	phaseOpen   = "inst"
)

// phaseSeedOffset keeps the trial seeds of the phases apart.
var phaseSeedOffset = map[string]uint64{phaseOpen: 0, phaseClosed: 400_000, phaseWarm: 800_000}

// splitmix64 is the benchmark's own input generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixAt picks the scenario of request i: blocks of fixed composition, each
// shuffled by the workload seed, so every run does the same amount of light
// and heavy work whatever the seed.
func (s serveSpec) mixAt(seed uint64, i int) scenario {
	block := make([]scenario, 0, len(s.Light)*s.LightEach+len(s.Heavy)*s.HeavyEach)
	for _, sc := range s.Light {
		for k := 0; k < s.LightEach; k++ {
			block = append(block, sc)
		}
	}
	for _, sc := range s.Heavy {
		for k := 0; k < s.HeavyEach; k++ {
			block = append(block, sc)
		}
	}
	block = shuffled(block, splitmix64(seed^uint64(i/len(block))<<20))
	return block[i%len(block)]
}

// asked is what request i of a phase asks the service for.
type asked struct {
	req request
	// sc and trialSeed name the trial of a POST /run; instance names the
	// target of an instance route, run tells a run from a read.
	sc        scenario
	trialSeed uint64
	instance  string
	run       bool
}

// ask builds request i of a phase on width lanes.
func (s serveSpec) ask(seed uint64, width int, phase string, i int) asked {
	id := phase + ":" + strconv.Itoa(i)
	if !s.Journal {
		a := asked{sc: s.mixAt(seed, i), run: true,
			trialSeed: (seed-1)*trialSeedStride + phaseSeedOffset[phase] + uint64(i) + 1}
		a.req = request{method: http.MethodPost, path: "/run", id: id, body: runBody(a.sc, a.trialSeed)}
		return a
	}
	// Every lane has an instance of every scenario to itself, so two runs of
	// one instance are never in flight together (the service answers the
	// loser of such a race with 409) and the lanes carry the same mix. A lane
	// alternates a run and a read and walks its instances; the workload seed
	// shifts the walk.
	all := s.scenarios()
	lane, turn := i%width, i/width+int(seed%1024)
	k := (turn / 2) % len(all)
	a := asked{sc: all[k], instance: instanceName(phase, k, lane), run: turn%2 == 0}
	if a.run {
		a.req = request{method: http.MethodPost, path: "/instances/" + a.instance + "/run", id: id}
	} else {
		a.req = request{method: http.MethodGet, path: "/instances/" + a.instance, id: id}
	}
	return a
}

// runBody is the body of a POST /run.
func runBody(sc scenario, trialSeed uint64) []byte {
	body, _ := json.Marshal(struct {
		scenario
		Seed uint64 `json:"seed"`
	}{sc, trialSeed})
	return body
}

func instanceName(phase string, k, lane int) string {
	return phase + "-" + strconv.Itoa(k) + "-" + strconv.Itoa(lane)
}

// handlerSpan is one call into the service's handler, timed from outside.
type handlerSpan struct{ start, end time.Time }

// spanHandler wraps the service for a traced run.
type spanHandler struct {
	inner http.Handler
	mu    sync.Mutex
	spans map[string]handlerSpan
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	end := time.Now()
	if id := r.Header.Get(idHeader); id != "" {
		h.mu.Lock()
		h.spans[id] = handlerSpan{start, end}
		h.mu.Unlock()
	}
}

// served is the service hosted in this process the way cmd/agreed hosts it:
// service.New and an http.Server on a loopback listener.
type served struct {
	srv     *Server
	hs      *http.Server
	done    chan error
	dir     string
	journal string       // "" without a journal
	handler *spanHandler // nil when untraced
	config  ServerConfig
	client  *lanes
}

// startService is the set-up of a serve workload: the service, the client,
// the instances of a journal workload, and one warm-up request per scenario.
func startService(spec serveSpec, o runOpts, width int) (*served, error) {
	dir, err := os.MkdirTemp(o.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	s := &served{dir: dir, config: ServerConfig{DefaultMaxWindows: spec.MaxWindows}}
	if spec.Journal {
		s.journal = filepath.Join(dir, "agreed.jsonl")
		s.config.JournalPath = s.journal
	}
	if s.srv, err = newServer(s.config); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	var handler http.Handler = s.srv
	if o.traced {
		s.handler = &spanHandler{inner: s.srv, spans: map[string]handlerSpan{}}
		handler = s.handler
	}
	s.hs = &http.Server{Handler: handler}
	s.done = make(chan error, 1)
	go func() { s.done <- s.hs.Serve(ln) }()
	s.client = newLanes("http://"+ln.Addr().String(), width)

	if err := s.warmUp(spec, o.seed, width); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *served) warmUp(spec serveSpec, seed uint64, width int) error {
	expect := func(rq request, want int) error {
		status, body, err := s.client.do(rq)
		if err == nil && status != want {
			err = fmt.Errorf("%s %s: status %d: %s", rq.method, rq.path, status, body)
		}
		return err
	}
	for k, sc := range spec.scenarios() {
		if !spec.Journal {
			body := runBody(sc, (seed-1)*trialSeedStride+phaseSeedOffset[phaseWarm]+uint64(k)+1)
			if err := expect(request{method: http.MethodPost, path: "/run", body: body}, 200); err != nil {
				return err
			}
			continue
		}
		body, _ := json.Marshal(struct {
			Scenario scenario `json:"scenario"`
		}{sc})
		for _, phase := range []string{phaseWarm, phaseClosed, phaseOpen} {
			for lane := 0; lane < width; lane++ {
				path := "/instances/" + instanceName(phase, k, lane)
				if err := expect(request{method: http.MethodPut, path: path, body: body}, 201); err != nil {
					return err
				}
			}
		}
		warm := "/instances/" + instanceName(phaseWarm, k, 0)
		if err := expect(request{method: http.MethodPost, path: warm + "/run"}, 200); err != nil {
			return err
		}
		if err := expect(request{method: http.MethodGet, path: warm}, 200); err != nil {
			return err
		}
	}
	return nil
}

// shutdown stops the HTTP server and closes the service and its journal; a
// second call does nothing.
func (s *served) shutdown() error {
	if s.hs == nil {
		return nil
	}
	defer func() { s.hs = nil }()
	s.client.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// stop shuts down and removes the service's directory.
func (s *served) stop() error {
	err := s.shutdown()
	os.RemoveAll(s.dir)
	return err
}

// readyState is the part of /readyz the benchmark reads.
type readyState struct {
	Inflight int64  `json:"inflight"`
	Queued   int64  `json:"queued"`
	Served   int64  `json:"served"`
	Shed     int64  `json:"shed"`
	Faulted  int64  `json:"faulted"`
	Journal  string `json:"journal"`
}

// call asks the service's handler directly, without a connection.
func call(srv *Server, method, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec.Code, rec.Body.Bytes()
}

func readyz(srv *Server) (readyState, error) {
	var st readyState
	_, body := call(srv, http.MethodGet, "/readyz")
	err := json.Unmarshal(body, &st)
	return st, err
}

// readySampleEvery is the /readyz sampling period of a traced run.
const readySampleEvery = 100 * time.Millisecond

// watchReady samples /readyz until stop is closed and reports the mean of
// inflight and the largest queue seen.
func watchReady(srv *Server, stop <-chan struct{}) (inflightMean float64, queuedMax int64) {
	tick := time.NewTicker(readySampleEvery)
	defer tick.Stop()
	var inflight, n int64
	for {
		select {
		case <-stop:
			return ratio(float64(inflight), float64(n)), queuedMax
		case <-tick.C:
			st, err := readyz(srv)
			if err != nil {
				continue
			}
			inflight += st.Inflight
			n++
			if st.Queued > queuedMax {
				queuedMax = st.Queued
			}
		}
	}
}

// serviceReply is the part of the service's run replies the checks read.
type serviceReply struct {
	Seed   uint64 `json:"seed"`
	Seq    int    `json:"seq"`
	Result struct {
		Windows       int    `json:"windows"`
		FirstDecision int    `json:"first_decision"`
		AllDecided    bool   `json:"all_decided"`
		Agreement     bool   `json:"agreement"`
		Validity      bool   `json:"validity"`
		Decision      int    `json:"decision"`
		MaxChain      int    `json:"max_chain"`
		FaultKind     string `json:"fault_kind"`
	} `json:"result"`
	// Name and Runs are set on an instance read.
	Name string `json:"name"`
	Runs int    `json:"runs"`
}

// phaseReplies is one loop of a serve run with what came back.
type phaseReplies struct {
	name    string
	start   time.Time
	replies []reply
}

// slices is how many equal parts each phase is cut into; the phase's metrics
// are those of its least disturbed part.
const slices = 5

// giveUpAfter is how many latency limits after its due time the open loop
// stops trying to send a request. It only bounds the run: such a request
// missed the limit long before.
const giveUpAfter = 10

// serveSetups is how many times a serve workload sets itself up; the last
// one serves the measurement and setup_s is the fastest of all (like a pass,
// a set-up is only ever slowed from outside the program).
const serveSetups = 40

// overheadSample is how many open-loop runs a traced run repeats directly
// on the engine, for service.overhead_us_p50 and as an oracle for replies.
const overheadSample = 300

// runServe runs a serve workload and returns its metrics.
func runServe(name string, spec serveSpec, o runOpts) (*outcome, error) {
	out := newOutcome()
	width := runtime.NumCPU()

	var s *served
	for k := 0; k < serveSetups; k++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if s, err = startService(spec, o, width); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
	}
	defer func() { s.stop() }()
	out.set("setup_s", sortedCopy(out.setups)[0])

	var journalBefore int64
	if spec.Journal {
		fi, err := os.Stat(s.journal)
		if err != nil {
			return nil, err
		}
		journalBefore = fi.Size()
	}

	var (
		probe     *memProbe
		stopWatch chan struct{}
		watched   sync.WaitGroup
		inflight  float64
		queuedMax int64
	)
	if o.traced {
		probe = startMemProbe()
		stopWatch = make(chan struct{})
		watched.Add(1)
		go func() {
			defer watched.Done()
			inflight, queuedMax = watchReady(s.srv, stopWatch)
		}()
	}

	closedFor := time.Duration(float64(o.seconds) * spec.ClosedShare)
	openFor := o.seconds - closedFor
	closedStart := time.Now()
	closed := s.client.closedLoop(closedFor, func(i int) request {
		return spec.ask(o.seed, width, phaseClosed, i).req
	})
	interval := time.Second / time.Duration(spec.RateRPS)
	due := int(openFor / interval)
	limit := time.Duration(spec.LimitMS) * time.Millisecond
	openStart := time.Now()
	open := s.client.openLoop(due, interval, giveUpAfter*limit, func(i int) request {
		return spec.ask(o.seed, width, phaseOpen, i).req
	})

	if o.traced {
		close(stopWatch)
		watched.Wait()
		mem := probe.finish()
		ops := float64(len(closed) + len(open))
		out.set("go.alloc_mb", mem.allocMB)
		out.set("go.mallocs_per_op", ratio(float64(mem.mallocs), ops))
		out.set("go.gc_cycles", float64(mem.gcCycles))
		out.set("go.heap_peak_mb", mem.heapPeakMB)
		out.set("service.inflight_mean", inflight)
		out.set("service.queued_max", float64(queuedMax))
	}

	// Closed loop: capacity.
	phases := []phaseReplies{{phaseClosed, closedStart, closed}, {phaseOpen, openStart, open}}
	closedOK := checkReplies(spec, o.seed, width, phaseClosed, closed, out)
	rates := sortedCopy(completionRates(closed))
	capacity := rates[len(rates)-1]
	out.note("closed loop: %d clients, %.1f s, %d replies, %.1f to %.1f/s over %d slices",
		width, closedFor.Seconds(), len(closed), rates[0], capacity, len(rates))

	// Open loop: latency from the due time, over every due request.
	openOK := checkReplies(spec, o.seed, width, phaseOpen, open, out)
	var (
		latency, late []float64
		within, sent  int
	)
	for _, r := range open {
		l := giveUpAfter * limit // a request that never left waited at least this
		if r.wasSent() {
			sent++
			l = r.done - r.due
			late = append(late, micros(r.sent-r.due))
		}
		if r.status == http.StatusOK && l <= limit {
			within++
		}
		latency = append(latency, millis(l))
	}
	late = sortedCopy(late)
	// The percentiles are taken per slice of the schedule and the quietest
	// slice is reported, as the fastest pass of a batch is: what disturbs a
	// slice from outside the program (this is a shared two-core box) only ever
	// adds latency, and a slowdown of the program itself is in every slice.
	// The whole loop's p99 is a per-layer metric.
	var p50, p95 []float64
	for k := 0; k < slices; k++ {
		part := sortedCopy(latency[k*due/slices : (k+1)*due/slices])
		p50, p95 = append(p50, percentile(part, 50)), append(p95, percentile(part, 95))
	}
	out.set("latency_p50_ms", sortedCopy(p50)[0])
	out.set("latency_p95_ms", sortedCopy(p95)[0])
	out.attempted = len(closed) + len(open)
	out.failed = out.attempted - closedOK - openOK
	perSlice := due / slices
	out.note("open loop: %d rps for %.1f s, %d due, %d sent, %d within %d ms; latency from the due time, lowest of %d slices of %d samples (highest supported percentile p%g), by slice: p50 %.3f ms, p95 %.3f ms",
		spec.RateRPS, openFor.Seconds(), due, sent, within, spec.LimitMS, slices, perSlice,
		supportedPercentile(perSlice), p50, p95)

	digest := sha256.New()
	for _, r := range open {
		digest.Write(r.body)
	}
	out.serve = &serveGolden{Seed: o.seed, Replies: due, RepliesSHA256: hex.EncodeToString(digest.Sum(nil))}
	if g, ok := o.golden.Serve[name]; ok && g.Seed == o.seed && g.Replies == due {
		if g.RepliesSHA256 != out.serve.RepliesSHA256 {
			out.problem("open-loop replies hash to %s, golden.json pins %s", out.serve.RepliesSHA256, g.RepliesSHA256)
		}
	}

	final, err := readyz(s.srv)
	if err != nil {
		return nil, err
	}
	if final.Shed != 0 || final.Faulted != 0 || (spec.Journal && final.Journal != "ok") {
		out.problem("service ended with %d shed, %d faulted, journal %q", final.Shed, final.Faulted, final.Journal)
	}

	if o.traced {
		out.set("trials_per_s", capacity)
		out.set("capacity_rps", capacity)
		out.set("within_limit_share", ratio(float64(within), float64(due)))
		out.set("fail_share", ratio(float64(out.failed), float64(out.attempted)))
		out.set("latency_p99_ms", percentile(sortedCopy(latency), 99))
		out.set("latency_samples", float64(perSlice))
		out.set("latency_supported_pct", supportedPercentile(perSlice))
		out.set("gen.due", float64(due))
		out.set("gen.sent", float64(sent))
		out.set("gen.late_us_p50", percentile(late, 50))
		out.set("gen.late_us_p99", percentile(late, 99))
		out.set("service.served", float64(final.Served))
		out.set("service.shed", float64(final.Shed))
		out.set("service.faulted", float64(final.Faulted))
		out.set("parallel.workers", float64(runtime.GOMAXPROCS(0)))
		if err := traceServe(spec, o, s, width, phases, out); err != nil {
			return nil, err
		}
	}

	if spec.Journal {
		if err := reopenJournal(spec, s, journalBefore, phases, width, o, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// completionRates cuts the 200 replies of a closed loop, in order of
// completion, into slices of equal count and returns each slice's rate.
func completionRates(replies []reply) []float64 {
	var done []float64
	for _, r := range replies {
		if r.status == http.StatusOK {
			done = append(done, r.done.Seconds())
		}
	}
	done = sortedCopy(done)
	var rates []float64
	from := 0.0
	for k := 1; k <= slices; k++ {
		lo, hi := (k-1)*len(done)/slices, k*len(done)/slices
		if hi > lo {
			rates = append(rates, float64(hi-lo)/(done[hi-1]-from))
			from = done[hi-1]
		}
	}
	return rates
}

// checkReplies checks every reply of a phase and returns how many were good.
// A good reply is a 200 whose trial reports agreement and validity, for the
// trial seed (or, on an instance, the run number) that was asked for.
func checkReplies(spec serveSpec, seed uint64, width int, phase string, replies []reply, out *outcome) int {
	good := 0
	seq := map[string]int{}
	for _, r := range replies {
		a := spec.ask(seed, width, phase, r.index)
		var got serviceReply
		switch {
		case !r.wasSent():
			out.problem("%s %d: due but never sent", phase, r.index)
			continue
		case r.err != nil:
			out.problem("%s %d: %v", phase, r.index, r.err)
			continue
		case r.status != http.StatusOK:
			out.problem("%s %d: status %d: %s", phase, r.index, r.status, strings.TrimSpace(string(r.body)))
			continue
		}
		if err := json.Unmarshal(r.body, &got); err != nil {
			out.problem("%s %d: reply does not parse: %v", phase, r.index, err)
			continue
		}
		switch {
		case !a.run:
			if got.Name != a.instance || got.Runs != seq[a.instance] {
				out.problem("%s %d: read of %s after %d runs answered for %q after %d", phase, r.index,
					a.instance, seq[a.instance], got.Name, got.Runs)
				continue
			}
		case !got.Result.Agreement || !got.Result.Validity || got.Result.FaultKind != "":
			out.problem("%s %d: agreement %t, validity %t, fault %q", phase, r.index,
				got.Result.Agreement, got.Result.Validity, got.Result.FaultKind)
			continue
		case a.instance == "" && got.Seed != a.trialSeed:
			out.problem("%s %d: answered for seed %d, asked %d", phase, r.index, got.Seed, a.trialSeed)
			continue
		case a.instance != "":
			seq[a.instance]++
			if got.Seq != seq[a.instance] || got.Seed != uint64(got.Seq) {
				out.problem("%s %d: %s answered run %d (seed %d), want run %d", phase, r.index,
					a.instance, got.Seq, got.Seed, seq[a.instance])
				continue
			}
		}
		good++
	}
	return good
}

// traceServe derives the per-layer metrics of a traced serve run from the
// client's and the handler's spans, and repeats a sample of the open loop's
// trials directly on the engine.
func traceServe(spec serveSpec, o runOpts, s *served, width int, phases []phaseReplies, out *outcome) error {
	var handler, transport, instRun, instGet, overhead []float64
	sampled := 0
	for _, ph := range phases {
		for _, r := range ph.replies {
			if !r.wasSent() || r.status != http.StatusOK {
				continue
			}
			a := spec.ask(o.seed, width, ph.name, r.index)
			s.handler.mu.Lock()
			h, ok := s.handler.spans[a.req.id]
			s.handler.mu.Unlock()
			if !ok {
				out.problem("%s: no handler span", a.req.id)
				continue
			}
			o.spans.add("client.request", a.req.id, "", ph.start.Add(r.due), ph.start.Add(r.done))
			o.spans.add("service.handler", a.req.id, "client.request", h.start, h.end)
			if ph.name != phaseOpen {
				continue
			}
			hd := h.end.Sub(h.start)
			handler = append(handler, micros(hd))
			transport = append(transport, micros(r.done-r.sent-hd))
			switch {
			case a.instance != "" && a.run:
				instRun = append(instRun, micros(hd))
			case a.instance != "":
				instGet = append(instGet, micros(hd))
			}
			if !a.run || sampled >= overheadSample {
				continue
			}
			sampled++
			var got serviceReply
			if err := json.Unmarshal(r.body, &got); err != nil {
				return err
			}
			coords := TrialRecord{Algorithm: a.sc.Algorithm, Adversary: a.sc.Adversary,
				Scheduler: a.sc.Scheduler, Input: a.sc.Input, N: a.sc.N, T: a.sc.T, Seed: got.Seed}
			rec, cost, err := replayTrial(coords, spec.MaxWindows, 0)
			if err != nil {
				return fmt.Errorf("direct run of %s: %w", a.req.id, err)
			}
			res := got.Result
			if rec.Windows != res.Windows || rec.FirstDecision != res.FirstDecision || rec.AllDecided != res.AllDecided ||
				rec.Decision != res.Decision || rec.MaxChain != res.MaxChain {
				out.problem("%s: service answered %+v, the engine gives %+v", a.req.id, res, rec)
			}
			o.spans.add("registry.trial", a.req.id, "service.handler", cost.start, cost.start.Add(cost.total()))
			overhead = append(overhead, micros(hd-cost.total()))
		}
	}
	handler = sortedCopy(handler)
	out.set("service.handler_us_p50", percentile(handler, 50))
	out.set("service.handler_us_p99", percentile(handler, 99))
	out.set("service.transport_us_p50", median(transport))
	out.set("service.overhead_us_p50", median(overhead))
	out.set("service.instance_run_us_p50", median(instRun))
	out.set("service.instance_get_us_p50", median(instGet))
	return nil
}

// reopenJournal closes the service, opens a new one on the journal the run
// produced, and checks that every instance came back as it was.
func reopenJournal(spec serveSpec, s *served, journalBefore int64, phases []phaseReplies, width int, o runOpts, out *outcome) error {
	_, before := call(s.srv, http.MethodGet, "/instances")
	if err := s.shutdown(); err != nil {
		return err
	}
	fi, err := os.Stat(s.journal)
	if err != nil {
		return err
	}
	runs := 0
	for _, ph := range phases {
		for _, r := range ph.replies {
			if spec.ask(o.seed, width, ph.name, r.index).run && r.status == http.StatusOK {
				runs++
			}
		}
	}
	start := time.Now()
	again, err := newServer(s.config)
	replay := time.Since(start)
	if err != nil {
		out.problem("reopening the journal: %v", err)
		return nil
	}
	defer again.Close()
	if sum := again.SalvageSummary(); sum != "" {
		out.problem("reopened journal needed salvage: %s", sum)
	}
	if _, after := call(again, http.MethodGet, "/instances"); string(after) != string(before) {
		out.problem("instances differ after reopening the journal:\nbefore %s\nafter  %s", before, after)
	}
	out.note("journal: %d runs, %d bytes, replayed in %.3f ms", runs, fi.Size(), millis(replay))
	if o.traced {
		out.set("service.journal_bytes_per_run", ratio(float64(fi.Size()-journalBefore), float64(runs)))
		out.set("service.journal_replay_ms", millis(replay))
	}
	return nil
}
