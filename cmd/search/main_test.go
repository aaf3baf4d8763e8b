package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asyncagree/internal/search"
)

// smokeArgs is the small search the CLI tests run: two adversaries with one
// knob each under the adversary-driven scheduler, short trials.
func smokeArgs(extra ...string) []string {
	return append([]string{
		"-alg", "core", "-advs", "splitvote,silence", "-scheds", "adversary",
		"-sizes", "12:1", "-trials", "2", "-max-windows", "40",
		"-refine", "1", "-gens", "1", "-pop", "3", "-seed", "5",
	}, extra...)
}

func TestSearchDeterministicOutput(t *testing.T) {
	var out1, out2 strings.Builder
	if err := run(smokeArgs(), &out1, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(smokeArgs(), &out2, nil); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("two identical searches produced different output:\n%s\n---\n%s", out1.String(), out2.String())
	}
	if !strings.Contains(out1.String(), "/adversary[") {
		t.Fatalf("frontier missing knobbed candidates:\n%s", out1.String())
	}
}

// TestSearchFlagsReachPipeline checks only that the harness flags reach the
// record pipeline: FuzzSpine (internal/registry) holds the byte identities
// they promise, and CI's Resume smoke holds them end to end.
// -inject-panics faults the named evaluation, and its stack shows -serial:
// a worker's names internal/parallel, the serial loop's does not;
// -interrupt-after stops after that many records, and -resume runs the rest.
func TestSearchFlagsReachPipeline(t *testing.T) {
	dir := t.TempDir()
	var out string
	for _, serial := range []bool{false, true} {
		out = filepath.Join(dir, fmt.Sprintf("serial-%v.jsonl", serial))
		args := smokeArgs("-out", out, "-inject-panics", "1", "-interrupt-after", "3")
		if serial {
			args = append(args, "-serial")
		}
		if err := run(args, &strings.Builder{}, nil); !errors.Is(err, search.ErrInterrupted) {
			t.Fatalf("serial=%v: err = %v, want ErrInterrupted", serial, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		if len(lines) != 3 || !strings.Contains(lines[1], `"fault_kind":"panic"`) {
			t.Fatalf("serial=%v: want 3 records with an injected panic at 1:\n%s", serial, data)
		}
		if strings.Contains(string(data), "asyncagree/internal/parallel.") == serial {
			t.Fatalf("serial=%v: the injected panic ran on the wrong loop:\n%s", serial, data)
		}
	}
	var table strings.Builder
	err := run(smokeArgs("-out", out, "-inject-panics", "1", "-serial", "-resume"), &table, nil)
	if err == nil || !strings.Contains(table.String(), "faulted-evaluations 1") {
		t.Fatalf("resumed run: err = %v, want 1 faulted evaluation:\n%s", err, table.String())
	}
}

func TestSearchListShowsKnobs(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"core", "splitvote", "knob capdelta", "knob resetpct", "knob offset"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("inventory missing %q:\n%s", want, out.String())
		}
	}
}

func TestSearchRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-alg", "nope"},
		{"-advs", "nope"},
		{"-scheds", "nope"},
		{"-input", "nope"},
		{"-sizes", "12"},
		{"-sizes", "a:b"},
		{"-trials", "-1"},
		{"-budget", "-1"},
		{"-resume"}, // no -out/-checkpoint to resume from
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out, nil); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestSearchResumeRejectsChangedOptions pins the misuse guard: a checkpoint
// recorded against one search signature cannot silently seed a different
// schedule.
func TestSearchResumeRejectsChangedOptions(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "r.jsonl")
	err := run(smokeArgs("-out", out, "-interrupt-after", "3"), &strings.Builder{}, nil)
	if !errors.Is(err, search.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	// Same -out/-checkpoint, different mutation seed → different signature.
	args := append([]string{
		"-alg", "core", "-advs", "splitvote,silence", "-scheds", "adversary",
		"-sizes", "12:1", "-trials", "2", "-max-windows", "40",
		"-refine", "1", "-gens", "1", "-pop", "3", "-seed", "6",
	}, "-out", out, "-resume")
	if err := run(args, &strings.Builder{}, nil); err == nil ||
		!strings.Contains(err.Error(), "grid") {
		t.Fatalf("changed options accepted on resume: %v", err)
	}
}

// TestSearchTornCheckpointTail simulates a hard kill mid-write: a torn
// final checkpoint line is discarded and the resume still completes
// identically.
func TestSearchTornCheckpointTail(t *testing.T) {
	dir := t.TempDir()
	cleanOut := filepath.Join(dir, "clean.jsonl")
	resOut := filepath.Join(dir, "torn.jsonl")
	var cleanTable strings.Builder
	if err := run(smokeArgs("-out", cleanOut), &cleanTable, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(smokeArgs("-out", resOut, "-interrupt-after", "4"), &strings.Builder{}, nil); !errors.Is(err, search.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	f, err := os.OpenFile(resOut+".ckpt", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":99,"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var resumedTable strings.Builder
	if err := run(smokeArgs("-out", resOut, "-resume"), &resumedTable, nil); err != nil {
		t.Fatal(err)
	}
	if cleanTable.String() != resumedTable.String() {
		t.Fatal("resume after torn checkpoint tail diverged from clean run")
	}
	clean, _ := os.ReadFile(cleanOut)
	resumed, _ := os.ReadFile(resOut)
	if string(clean) != string(resumed) {
		t.Fatal("resumed JSONL after torn tail diverged from clean run")
	}
}

// TestSearchFaultInjectionExitsNonZero drives the chaos path end to end:
// injected evaluation faults surface in the degradation report and fail the
// invocation, while the frontier is still printed.
func TestSearchFaultInjectionExitsNonZero(t *testing.T) {
	var out strings.Builder
	err := run(smokeArgs("-inject-panics", "0", "-inject-stalls", "1", "-inject-stall-window", "1"), &out, nil)
	if err == nil || !strings.Contains(err.Error(), "faulted") {
		t.Fatalf("faulted search exited cleanly: %v", err)
	}
	if !strings.Contains(out.String(), "faulted-evaluations 2") {
		t.Fatalf("degradation report missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "mean-stall") {
		t.Fatalf("frontier table missing from degraded run:\n%s", out.String())
	}
}
