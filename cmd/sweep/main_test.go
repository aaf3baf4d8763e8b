package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"asyncagree/internal/registry"
)

func TestSweepDeterministicOutput(t *testing.T) {
	args := []string{
		"-algs", "core,benor", "-advs", "full,splitvote",
		"-sizes", "12:1", "-inputs", "split,ones",
		"-trials", "2", "-max-windows", "2000",
	}
	var out1, out2 strings.Builder
	if err := run(args, &out1, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &out2, nil); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("two identical sweeps produced different output:\n%s\n---\n%s", out1.String(), out2.String())
	}
	if !strings.Contains(out1.String(), "splitvote") || !strings.Contains(out1.String(), "benor") {
		t.Fatalf("missing cells:\n%s", out1.String())
	}
}

// TestSweepFlagsReachPipeline checks only that the harness flags reach the
// record pipeline: FuzzSpine (internal/registry) holds the byte identities
// they promise, and CI's Resume and Chaos smokes hold them end to end.
// -inject-panics faults the named trial, and its stack shows -serial: a
// worker's names internal/parallel, the serial loop's does not;
// -interrupt-after stops after that many records, and -resume runs the rest.
func TestSweepFlagsReachPipeline(t *testing.T) {
	dir := t.TempDir()
	var out string
	for _, serial := range []bool{false, true} {
		out = filepath.Join(dir, fmt.Sprintf("serial-%v.jsonl", serial))
		args := smokeArgs("-out", out, "-inject-panics", "1", "-interrupt-after", "3")
		if serial {
			args = append(args, "-serial")
		}
		if err := run(args, &strings.Builder{}, nil); !errors.Is(err, registry.ErrInterrupted) {
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
	err := run(smokeArgs("-out", out, "-inject-panics", "1", "-serial", "-resume"), &strings.Builder{}, nil)
	if err == nil || !strings.Contains(err.Error(), "1 faulted trials") {
		t.Fatalf("resumed run: err = %v, want 1 faulted trial", err)
	}
	if recs := loadRecords(t, out); len(recs) != 16 {
		t.Fatalf("resumed run left %d records, want 16", len(recs))
	}
}

func TestSweepList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"core", "paxos", "splitvote", "silence", "blocks",
		"schedulers:", "adversary", "ascmin", "seeded", "laggard", "alternate"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("inventory missing %q:\n%s", want, out.String())
		}
	}
}

// TestSweepSchedulerAxis drives the -scheds flag end to end: one cell per
// requested scheduler, all compatible with the benign adversary, rendered
// in the scheduler column.
func TestSweepSchedulerAxis(t *testing.T) {
	args := []string{
		"-algs", "core", "-advs", "full",
		"-scheds", "adversary,full,ascmin,seeded,laggard,alternate",
		"-sizes", "12:1", "-inputs", "ones",
		"-trials", "2", "-max-windows", "2000",
	}
	var out strings.Builder
	if err := run(args, &out, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cells 6") {
		t.Fatalf("want one cell per scheduler:\n%s", out.String())
	}
	for _, sched := range []string{"ascmin", "seeded", "laggard", "alternate"} {
		if !strings.Contains(out.String(), sched) {
			t.Fatalf("scheduler %q missing from table:\n%s", sched, out.String())
		}
	}
}

func TestSweepRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-algs", "nope"},
		{"-advs", "nope"},
		{"-scheds", "nope"},
		{"-inputs", "nope"},
		{"-sizes", "12"},
		{"-sizes", "a:b"},
		{"-trials", "-1"},
		{"-resume"}, // no -out/-checkpoint to resume from
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out, nil); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// smokeArgs is the small grid the streaming/resume tests run: two
// algorithms under two adversaries, 12 trials total.
func smokeArgs(extra ...string) []string {
	return append([]string{
		"-algs", "core,benor", "-advs", "full,splitvote", "-scheds", "adversary",
		"-sizes", "12:1", "-inputs", "split,ones",
		"-trials", "2", "-max-windows", "2000",
	}, extra...)
}

// TestSweepOutSinks checks the -out record streams: the JSONL export has
// one record per trial in index order, and the CSV export mirrors it under
// the fixed header.
func TestSweepOutSinks(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "results.jsonl")
	csv := filepath.Join(dir, "results.csv")

	var out strings.Builder
	if err := run(smokeArgs("-out", jsonl, "-checkpoint", "off"), &out, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(smokeArgs("-out", csv, "-checkpoint", "off"), &out, nil); err != nil {
		t.Fatal(err)
	}

	jl, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	jLines := strings.Split(strings.TrimSuffix(string(jl), "\n"), "\n")
	// 2 algs × 2 advs compatible cells at 12:1 × 2 inputs × 2 seeds, minus
	// nothing: count must match the reported trial total.
	if !strings.Contains(out.String(), "trials 16") {
		t.Fatalf("unexpected trial count:\n%s", out.String())
	}
	if len(jLines) != 16 {
		t.Fatalf("jsonl lines = %d, want 16:\n%s", len(jLines), string(jl))
	}
	for i, line := range jLines {
		if !strings.Contains(line, `"index":`+strconv.Itoa(i)+",") {
			t.Fatalf("line %d out of order: %s", i, line)
		}
	}

	cl, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	cLines := strings.Split(strings.TrimSuffix(string(cl), "\n"), "\n")
	if len(cLines) != 17 {
		t.Fatalf("csv lines = %d, want header + 16", len(cLines))
	}
	if !strings.HasPrefix(cLines[0], "index,algorithm,adversary") {
		t.Fatalf("csv header = %q", cLines[0])
	}
}

// TestSweepResumeRejectsChangedGrid pins the misuse guard: a checkpoint
// recorded against one grid cannot silently seed a different one.
func TestSweepResumeRejectsChangedGrid(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "r.jsonl")
	err := run(smokeArgs("-out", out, "-interrupt-after", "3"), &strings.Builder{}, nil)
	if !errors.Is(err, registry.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	// Same -out/-checkpoint, different trial count → different grid.
	args := append([]string{
		"-algs", "core,benor", "-advs", "full,splitvote", "-scheds", "adversary",
		"-sizes", "12:1", "-inputs", "split,ones",
		"-trials", "3", "-max-windows", "2000",
	}, "-out", out, "-resume")
	if err := run(args, &strings.Builder{}, nil); err == nil ||
		!strings.Contains(err.Error(), "grid") {
		t.Fatalf("changed grid accepted on resume: %v", err)
	}
}

// TestSweepTornCheckpointTail simulates a hard kill mid-write: a torn final
// checkpoint line is discarded and the resume still completes identically.
func TestSweepTornCheckpointTail(t *testing.T) {
	dir := t.TempDir()
	cleanOut := filepath.Join(dir, "clean.jsonl")
	resOut := filepath.Join(dir, "torn.jsonl")
	var cleanTable strings.Builder
	if err := run(smokeArgs("-out", cleanOut), &cleanTable, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(smokeArgs("-out", resOut, "-interrupt-after", "4"), &strings.Builder{}, nil); !errors.Is(err, registry.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	// Tear the checkpoint tail.
	f, err := os.OpenFile(resOut+".ckpt", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":99,"algo`); err != nil {
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
