package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"asyncagree/internal/service"
)

func TestParseMix(t *testing.T) {
	specs, err := parseMix("core/full/adversary/split/12:1, benor/subsets/adversary/split/9:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs", len(specs))
	}
	want := scenarioSpec{alg: "benor", adv: "subsets", sched: "adversary", input: "split", n: 9, t: 2}
	if specs[1] != want {
		t.Fatalf("spec[1] = %+v, want %+v", specs[1], want)
	}

	for _, bad := range []string{"", "core/full/adversary/split", "core/full/adversary/split/12", "core/full/adversary/split/x:1"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

// startService exposes an in-process agreement service over a real TCP
// listener for the generator to hit.
func startService(t *testing.T, cfg service.Config) (string, *service.Server) {
	t.Helper()
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return strings.TrimPrefix(hs.URL, "http://"), srv
}

// TestLoadAgainstService: the generator drives a live in-process service
// within budget and exits 0, reporting latency and zero errors.
func TestLoadAgainstService(t *testing.T) {
	addr, _ := startService(t, service.Config{Workers: 2})
	var out bytes.Buffer
	code := run([]string{
		"-addr", addr, "-rps", "200", "-duration", "500ms",
		"-concurrency", "8", "-seed", "3", "-max-error-rate", "0",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), " ok, ") || !strings.Contains(out.String(), "latency") {
		t.Fatalf("report missing counts or latency:\n%s", out.String())
	}
	if strings.Contains(out.String(), " 0 ok,") {
		t.Fatalf("no successful requests:\n%s", out.String())
	}
}

// TestLoadInstanceMode drives the journaled named-instance path.
func TestLoadInstanceMode(t *testing.T) {
	addr, _ := startService(t, service.Config{Workers: 1})
	var out bytes.Buffer
	code := run([]string{
		"-addr", addr, "-rps", "50", "-duration", "400ms",
		"-concurrency", "1", "-instance", "exp1", "-max-error-rate", "0",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
}

// TestLoadErrorBudgetViolation: a server answering only 500s must blow a
// zero error budget and exit non-zero.
func TestLoadErrorBudgetViolation(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer hs.Close()
	var out bytes.Buffer
	code := run([]string{
		"-addr", strings.TrimPrefix(hs.URL, "http://"),
		"-rps", "100", "-duration", "200ms", "-max-error-rate", "0", "-quiet",
	}, &out)
	if code == 0 {
		t.Fatalf("exit 0 despite 100%% faults:\n%s", out.String())
	}
}

// TestLoadP99BudgetWithoutOkResponses: a p99 budget with no ok response to
// measure cannot pass, even under an error budget the faults fit in.
func TestLoadP99BudgetWithoutOkResponses(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer hs.Close()
	var out bytes.Buffer
	code := run([]string{
		"-addr", strings.TrimPrefix(hs.URL, "http://"),
		"-rps", "100", "-duration", "100ms", "-max-p99", "10ms",
	}, &out)
	if code != 1 || !strings.Contains(out.String(), " 0 ok,") {
		t.Fatalf("exit %d with no ok responses to judge p99, want 1:\n%s", code, out.String())
	}
}

// TestLoadRetriesShedding: a server that sheds the first attempts then
// recovers is absorbed by retry — the request still counts as ok.
func TestLoadRetriesShedding(t *testing.T) {
	var hits int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits%2 == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"result":{}}`))
	}))
	defer hs.Close()
	var out bytes.Buffer
	code := run([]string{
		"-addr", strings.TrimPrefix(hs.URL, "http://"),
		"-rps", "20", "-duration", "300ms", "-concurrency", "1",
		"-retry-base", "1ms", "-max-error-rate", "0",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "retries") || strings.Contains(out.String(), " 0 retries") {
		t.Fatalf("expected retried requests in report:\n%s", out.String())
	}
}

// TestLoadCountsEveryDueRequest: against a server slower than the schedule,
// with one slot, most due requests find the slot busy. Every one of them is
// accounted for — sent + skipped is the whole schedule (300 ms at 100 rps is
// 30 requests), where a ticker-driven loop silently dropped the ticks it was
// late for — and latency is timed from the due time, so it cannot be shorter
// than the server's 50 ms.
func TestLoadCountsEveryDueRequest(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		w.Write([]byte(`{"result":{}}`))
	}))
	defer hs.Close()
	var out bytes.Buffer
	code := run([]string{
		"-addr", strings.TrimPrefix(hs.URL, "http://"),
		"-rps", "100", "-duration", "300ms", "-concurrency", "1", "-max-error-rate", "0",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	var due, sent, skipped int
	if _, err := fmt.Sscanf(out.String(), "load: %d due: %d sent, %d skipped", &due, &sent, &skipped); err != nil {
		t.Fatalf("report has no due/sent/skipped counts: %v\n%s", err, out.String())
	}
	if due != 30 || sent+skipped != due {
		t.Fatalf("due %d (want 30), sent %d + skipped %d", due, sent, skipped)
	}
	if sent < 2 || sent > 8 || skipped < 20 {
		t.Fatalf("a 50 ms server with one slot should take about 6 of 30 requests: sent %d, skipped %d", sent, skipped)
	}
	var mean, p50 float64
	if i := strings.Index(out.String(), "load: latency mean"); i < 0 {
		t.Fatalf("no latency line:\n%s", out.String())
	} else if _, err := fmt.Sscanf(out.String()[i:], "load: latency mean %fms p50 %fms", &mean, &p50); err != nil || p50 < 50 {
		t.Fatalf("p50 %.1f ms (err %v) is below the server's 50 ms: latency is not timed from the due time\n%s", p50, err, out.String())
	}
}

func TestLoadBadFlags(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-mix", "garbage"},
		{"-rps", "0"},
		{"-concurrency", "0"},
		{"-concurrency", "-1"},
		{"-duration", "0s"},
		{"-duration", "-1s", "-max-error-rate", "0"},
		{"-retry-attempts", "0"},
		{"-retry-base", "-1ms"},
		{"-max-p99", "-1ms"},
		{"-max-error-rate", "NaN"},
		{"-max-error-rate", "-0.5"},
		{"-max-error-rate", "1.5"},
	} {
		if code := run(args, &out); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
}
