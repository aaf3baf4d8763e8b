package main

import (
	"errors"
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

func TestSearchSerialMatchesParallelOutput(t *testing.T) {
	var par, ser strings.Builder
	if err := run(smokeArgs(), &par, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(smokeArgs("-serial"), &ser, nil); err != nil {
		t.Fatal(err)
	}
	if par.String() != ser.String() {
		t.Fatalf("parallel output diverged from serial:\n%s\n---\n%s", par.String(), ser.String())
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

// TestSearchResumeIdentical is the driver's central guarantee surfaced at
// the CLI: a search interrupted partway (the -interrupt-after hook, the
// same clean-stop path SIGINT takes) and then resumed produces a frontier
// table, a JSONL export, and a checkpoint byte-identical to an
// uninterrupted run's.
func TestSearchResumeIdentical(t *testing.T) {
	dir := t.TempDir()
	cleanOut := filepath.Join(dir, "clean.jsonl")
	resOut := filepath.Join(dir, "resumed.jsonl")

	var cleanTable strings.Builder
	if err := run(smokeArgs("-out", cleanOut), &cleanTable, nil); err != nil {
		t.Fatal(err)
	}

	var interruptedTable strings.Builder
	err := run(smokeArgs("-out", resOut, "-interrupt-after", "4"), &interruptedTable, nil)
	if !errors.Is(err, search.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if interruptedTable.Len() != 0 {
		t.Fatalf("interrupted run printed a table:\n%s", interruptedTable.String())
	}
	ckpt, err := os.ReadFile(resOut + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(ckpt), "\n"); got != 1+4 {
		t.Fatalf("checkpoint has %d lines, want header + 4 records:\n%s", got, ckpt)
	}

	var resumedTable strings.Builder
	if err := run(smokeArgs("-out", resOut, "-resume"), &resumedTable, nil); err != nil {
		t.Fatal(err)
	}

	if cleanTable.String() != resumedTable.String() {
		t.Fatalf("resumed table diverged from clean run:\n%s\n---\n%s",
			cleanTable.String(), resumedTable.String())
	}
	clean, err := os.ReadFile(cleanOut)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(resOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(clean) != string(resumed) {
		t.Fatalf("resumed JSONL diverged from clean run:\n%s\n---\n%s", clean, resumed)
	}
	cleanCkpt, err := os.ReadFile(cleanOut + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	resumedCkpt, err := os.ReadFile(resOut + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if string(cleanCkpt) != string(resumedCkpt) {
		t.Fatal("resumed checkpoint diverged from clean run")
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
