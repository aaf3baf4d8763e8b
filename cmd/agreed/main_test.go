package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-inject-panics", "rand:3@7"}, &out); code != 2 {
		t.Fatalf("rand inject set: exit %d, want 2 (a daemon has no trial total)", code)
	}
	if code := run([]string{"-inject-panics", "not-a-set"}, &out); code != 2 {
		t.Fatalf("garbage inject set: exit %d, want 2", code)
	}
	if code := run([]string{"-no-such-flag"}, &out); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	for _, args := range [][]string{
		{"-max-windows", "-5"},
		{"-workers", "-2"},
		{"-queue", "-3"},
		{"-deadline", "-1s"},
		{"-drain-timeout", "-1s"},
	} {
		if code := run(args, &out); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
}

// lineBuffer is a concurrency-safe writer the test polls for the daemon's
// listen line.
type lineBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (lb *lineBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Write(p)
}

func (lb *lineBuffer) String() string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.String()
}

// TestDaemonServesAndDrainsOnSIGTERM boots the real daemon body on a free
// port, serves requests through it (one-shot and journaled instance runs),
// then delivers a real SIGTERM and expects a clean drain: exit 0 and a
// replayable journal.
func TestDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	out := &lineBuffer{}
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-journal", journal, "-workers", "1"}, out)
	}()

	// Wait for the listen line and extract the resolved address.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output %q", out.String())
		}
		if s := out.String(); strings.Contains(s, "listening on ") {
			line := s[strings.Index(s, "listening on ")+len("listening on "):]
			addr = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	base := "http://" + addr

	// Liveness and readiness.
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + probe)
		if err != nil {
			t.Fatalf("%s: %v", probe, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", probe, resp.StatusCode)
		}
	}

	// One-shot run.
	resp, err := http.Post(base+"/run", "application/json",
		strings.NewReader(`{"algorithm":"core","n":12,"t":1,"seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Result struct {
			AllDecided bool `json:"all_decided"`
			Agreement  bool `json:"agreement"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rep.Result.AllDecided || !rep.Result.Agreement {
		t.Fatalf("run: %d, %+v", resp.StatusCode, rep)
	}

	// Journaled instance runs.
	req, _ := http.NewRequest("PUT", base+"/instances/d1",
		strings.NewReader(`{"scenario":{"algorithm":"core","n":12,"t":1}}`))
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusCreated {
		t.Fatalf("instance create: %d", cresp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		rresp, err := http.Post(base+"/instances/d1/run", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		rresp.Body.Close()
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("instance run %d: %d", i, rresp.StatusCode)
		}
	}

	// Drain on SIGTERM: process-directed, exactly what systemd or the CI
	// smoke sends.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("drain exit code %d, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}

	// The journal it left behind replays: a fresh daemon restores the
	// instance with both runs.
	out2 := &lineBuffer{}
	exit2 := make(chan int, 1)
	go func() {
		exit2 <- run([]string{"-addr", "127.0.0.1:0", "-journal", journal}, out2)
	}()
	var addr2 string
	deadline = time.Now().Add(10 * time.Second)
	for addr2 == "" {
		if time.Now().After(deadline) {
			t.Fatalf("restarted daemon never announced; output %q", out2.String())
		}
		if s := out2.String(); strings.Contains(s, "listening on ") {
			line := s[strings.Index(s, "listening on ")+len("listening on "):]
			addr2 = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	gresp, err := http.Get(fmt.Sprintf("http://%s/instances/d1", addr2))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Runs int `json:"runs"`
	}
	if err := json.NewDecoder(gresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK || st.Runs != 2 {
		t.Fatalf("replayed instance: %d, runs %d (want 2)", gresp.StatusCode, st.Runs)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit2:
		if code != 0 {
			t.Fatalf("second drain exit code %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("restarted daemon did not drain")
	}
}
