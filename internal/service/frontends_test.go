package service

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"asyncagree/internal/faultinject"
	"asyncagree/internal/registry"
	"asyncagree/internal/search"
	"asyncagree/internal/sim"
)

// illegalPlan plans one sender row word for the whole system: an illegal
// window on the first poll.
type illegalPlan struct{}

func (illegalPlan) PlanDelivery(*sim.System, []sim.Message) sim.Window {
	return sim.Window{SenderRows: make([]uint64, 1)}
}

// memSink retains every record a front end streams.
type memSink[R any] struct{ recs []R }

func (s *memSink[R]) Consume(r R) error { s.recs = append(s.recs, r); return nil }
func (s *memSink[R]) Flush() error      { return nil }

// TestFrontEndsIssueTheSameReceipt drives each way a trial can end through
// the three front ends that serve trials — Matrix.RunWith, search.Run and
// POST /run — and asserts they classify it identically and leave the engine
// ledger balanced: all three issue their receipt from registry.RunContained.
func TestFrontEndsIssueTheSameReceipt(t *testing.T) {
	always := func(*registry.Algorithm, registry.Params) bool { return true }
	for _, a := range []registry.Adversary{
		{Name: "xfe-illegal", Compatible: always,
			New: func(*registry.Algorithm, registry.Params) (sim.WindowAdversary, error) {
				return illegalPlan{}, nil
			}},
		{Name: "xfe-newpanic", Compatible: always,
			New: func(*registry.Algorithm, registry.Params) (sim.WindowAdversary, error) {
				panic("constructor boom")
			}},
	} {
		if err := registry.RegisterAdversary(a); err != nil {
			t.Fatal(err)
		}
	}
	first := func(t *testing.T) *faultinject.TrialSet {
		set, err := faultinject.ParseTrialSet("0")
		if err != nil {
			t.Fatal(err)
		}
		return set
	}

	cases := []struct {
		name, adv    string
		panic, stall bool
		want         string
		status       int
	}{
		{name: "clean", adv: "full", want: "", status: http.StatusOK},
		{name: "injected panic", adv: "full", panic: true, want: registry.FaultPanic, status: http.StatusInternalServerError},
		{name: "stall", adv: "splitvote", stall: true, want: registry.FaultDeadline, status: http.StatusGatewayTimeout},
		{name: "illegal window", adv: "xfe-illegal", want: registry.FaultError, status: http.StatusInternalServerError},
		{name: "panic during acquire", adv: "xfe-newpanic", want: registry.FaultPanic, status: http.StatusInternalServerError},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := registry.EngineStatsSnapshot()
			plan := &faultinject.Plan{StallWindow: 1}
			if c.panic {
				plan.Panic = first(t)
			}
			if c.stall {
				plan.Stall = first(t)
			}

			trials := &memSink[registry.TrialRecord]{}
			if _, err := (registry.Matrix{
				Algorithms: []string{"core"}, Adversaries: []string{c.adv}, Schedulers: []string{"adversary"},
				Sizes: []registry.Size{{N: 12, T: 1}}, Inputs: []string{"split"}, Seeds: []uint64{1}, MaxWindows: 200,
			}).RunWith(registry.RunOptions{Sinks: []registry.ResultSink{trials}, Inject: plan}); err != nil {
				t.Fatalf("sweep: %v", err)
			}

			evals := &memSink[search.EvalRecord]{}
			if _, err := search.Run(search.Options{
				Algorithm: "core", Adversaries: []string{c.adv}, Schedulers: []string{"adversary"},
				Sizes: []registry.Size{{N: 12, T: 1}}, TrialsPerCandidate: 1, MaxWindows: 200,
				Refinements: -1, Generations: -1,
			}, search.RunOptions{Sinks: []search.Sink{evals}, Inject: plan}); err != nil {
				t.Fatalf("search: %v", err)
			}

			// The daemon's watchdog is the request context, so its stall is
			// a deadline that has already passed when the trial starts.
			s := newTestServer(t, Config{InjectPanics: plan.Panic})
			req := RunRequest{Scenario: Scenario{Algorithm: "core", Adversary: c.adv, N: 12, T: 1, MaxWindows: 200}, Seed: 1}
			if c.stall {
				s.testHookPreExecute = func(ctx context.Context) { <-ctx.Done() }
				req.TimeoutMS = 20
			}
			w := doJSON(t, s, "POST", "/run", req)
			var rep RunReply
			if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
				t.Fatalf("reply %d %s: %v", w.Code, w.Body.String(), err)
			}

			if len(trials.recs) != 1 || len(evals.recs) == 0 {
				t.Fatalf("sweep emitted %d records, search %d", len(trials.recs), len(evals.recs))
			}
			got := [3]string{trials.recs[0].FaultKind, evals.recs[0].FaultKind, rep.Result.FaultKind}
			if got != [3]string{c.want, c.want, c.want} {
				t.Fatalf("fault kinds (sweep, search, /run) = %q, want all %q", got, c.want)
			}
			if w.Code != c.status {
				t.Fatalf("/run status %d, want %d", w.Code, c.status)
			}
			if got := s.served.Load(); got != 1 {
				t.Fatalf("served = %d after a %s request, want 1", got, c.name)
			}
			after := registry.EngineStatsSnapshot()
			if acquired, back := after.Acquired-before.Acquired,
				after.Released-before.Released+after.Poisoned-before.Poisoned; acquired != back {
				t.Fatalf("engine ledger: %d acquired, %d released or poisoned", acquired, back)
			}
		})
	}
}
