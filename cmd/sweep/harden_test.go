package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asyncagree/internal/registry"
)

// TestSweepRejectsBadHardeningFlags: the robustness flags validate their
// inputs with clear errors instead of silently misbehaving.
func TestSweepRejectsBadHardeningFlags(t *testing.T) {
	cases := [][]string{
		{"-interrupt-after", "-1"},
		{"-max-windows", "-5"},
		{"-deadline", "-1s"},
		{"-retry", "0"},
		{"-retry", "-2"},
		{"-retry-backoff", "-1ms"},
		{"-inject-stall-window", "-1"},
		{"-inject-panics", "nope"},
		{"-inject-panics", "5-2"},
		{"-inject-stalls", "rand:0@1"},
		{"-inject-out-failures", "0+"},
		{"-inject-ckpt-failures", "3x0"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out, nil); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// loadRecords parses a JSONL export, truncating fault descriptions to their
// first line (panic stacks carry frame addresses that differ run to run;
// the byte-identity guarantee covers clean records in full).
func loadRecords(t *testing.T, path string) []registry.TrialRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []registry.TrialRecord
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var rec registry.TrialRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("%s line %d: %v", path, i+1, err)
		}
		if j := strings.IndexByte(rec.Fault, '\n'); j >= 0 {
			rec.Fault = rec.Fault[:j]
		}
		out = append(out, rec)
	}
	return out
}

// TestSweepChaosSurvivesAndReportsFaults is the end-to-end panic/stall
// chaos run: the sweep completes, prints its table plus a degradation
// summary, exits non-zero, and every non-faulted trial's record is
// byte-identical to the clean run's.
func TestSweepChaosSurvivesAndReportsFaults(t *testing.T) {
	dir := t.TempDir()
	cleanOut := filepath.Join(dir, "clean.jsonl")
	chaosOut := filepath.Join(dir, "chaos.jsonl")

	var cleanTable strings.Builder
	if err := run(smokeArgs("-out", cleanOut, "-checkpoint", "off"), &cleanTable, nil); err != nil {
		t.Fatal(err)
	}
	clean := loadRecords(t, cleanOut)
	// Stall a trial that demonstrably runs past window 1 (and isn't already
	// panicking), so the injected stall interrupts real work.
	stallAt := -1
	for i, rec := range clean {
		if rec.Windows >= 2 && i != 2 && i != 9 {
			stallAt = i
			break
		}
	}
	if stallAt < 0 {
		t.Skip("no trial runs long enough to stall")
	}

	var chaosTable strings.Builder
	err := run(smokeArgs("-out", chaosOut, "-checkpoint", "off",
		"-inject-panics", "2,9",
		"-inject-stalls", fmt.Sprint(stallAt), "-inject-stall-window", "1"), &chaosTable, nil)
	if err == nil || !strings.Contains(err.Error(), "3 faulted trials") {
		t.Fatalf("chaos run: err = %v", err)
	}
	if !strings.Contains(chaosTable.String(), "faulted-trials 3") {
		t.Fatalf("missing degradation summary:\n%s", chaosTable.String())
	}
	// The aggregate table rows and the standard summary line still lead the
	// output, before the degradation report.
	if !strings.Contains(chaosTable.String(), "cells 8   trials 16") {
		t.Fatalf("table/summary missing:\n%s", chaosTable.String())
	}

	chaos := loadRecords(t, chaosOut)
	if len(chaos) != len(clean) {
		t.Fatalf("chaos run emitted %d records, clean %d", len(chaos), len(clean))
	}
	for i, rec := range chaos {
		switch i {
		case 2, 9:
			if rec.FaultKind != registry.FaultPanic || rec.Key() != clean[i].Key() {
				t.Fatalf("record %d: kind %q key %q", i, rec.FaultKind, rec.Key())
			}
		case stallAt:
			if rec.FaultKind != registry.FaultDeadline || rec.Windows != 1 {
				t.Fatalf("record %d: kind %q windows %d", i, rec.FaultKind, rec.Windows)
			}
		default:
			if rec != clean[i] {
				t.Fatalf("clean record %d diverged under chaos:\nclean %+v\ngot   %+v", i, clean[i], rec)
			}
		}
	}
}

// TestSweepQuarantineReported: a cell that faults repeatedly is quarantined
// end to end — remaining trials skipped, table annotated, exit non-zero.
func TestSweepQuarantineReported(t *testing.T) {
	args := []string{
		"-algs", "benor", "-advs", "full", "-scheds", "adversary",
		"-sizes", "12:1", "-inputs", "split",
		"-trials", "5", "-max-windows", "2000",
		"-inject-panics", "0-2",
	}
	var out strings.Builder
	err := run(args, &out, nil)
	if err == nil || !strings.Contains(err.Error(), "1 quarantined cells") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(out.String(), "faulted-trials 5   quarantined-cells 1") ||
		!strings.Contains(out.String(), "quarantined: benor/full/adversary/split 12:1") {
		t.Fatalf("quarantine report missing:\n%s", out.String())
	}
}

// TestSweepTransientWriteFailureAbsorbed: a write failure shorter than the
// retry budget is invisible — clean exit, byte-identical outputs.
func TestSweepTransientWriteFailureAbsorbed(t *testing.T) {
	dir := t.TempDir()
	cleanOut := filepath.Join(dir, "clean.jsonl")
	flakyOut := filepath.Join(dir, "flaky.jsonl")
	if err := run(smokeArgs("-out", cleanOut, "-checkpoint", "off"), &strings.Builder{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(smokeArgs("-out", flakyOut, "-checkpoint", "off",
		"-inject-out-failures", "1x2", "-retry-backoff", "1ms"), &strings.Builder{}, nil); err != nil {
		t.Fatalf("transient write failure surfaced: %v", err)
	}
	clean, _ := os.ReadFile(cleanOut)
	flaky, _ := os.ReadFile(flakyOut)
	if string(clean) != string(flaky) {
		t.Fatal("retry-absorbed run diverged from clean run")
	}
}

// TestSweepPermanentWriteFailureDropsSink: a failure outlasting the retry
// budget drops the sink, reports it by name, and exits non-zero — but the
// sweep itself completes with its table and aggregates intact.
func TestSweepPermanentWriteFailureDropsSink(t *testing.T) {
	dir := t.TempDir()
	cleanOut := filepath.Join(dir, "clean.jsonl")
	deadOut := filepath.Join(dir, "dead.jsonl")
	var cleanTable strings.Builder
	if err := run(smokeArgs("-out", cleanOut, "-checkpoint", "off"), &cleanTable, nil); err != nil {
		t.Fatal(err)
	}
	var chaosTable strings.Builder
	err := run(smokeArgs("-out", deadOut, "-checkpoint", "off",
		"-inject-out-failures", "1+", "-retry", "2", "-retry-backoff", "1ms"), &chaosTable, nil)
	if err == nil || !strings.Contains(err.Error(), "1 dropped sinks") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(chaosTable.String(), "sink dropped: "+deadOut) {
		t.Fatalf("drop report missing:\n%s", chaosTable.String())
	}
	// The aggregate table is unaffected: everything the clean run printed
	// leads the degraded run's output.
	if !strings.HasPrefix(chaosTable.String(), cleanTable.String()) {
		t.Fatalf("degraded run lost table output:\n%s\n---\n%s", cleanTable.String(), chaosTable.String())
	}
}

// TestSweepCheckpointFailureStillResumable: dropping the checkpoint sink
// mid-run exits non-zero, and the -out export (whose sink was healthy) is
// still byte-identical to the clean run's.
func TestSweepCheckpointFailureStillResumable(t *testing.T) {
	dir := t.TempDir()
	cleanOut := filepath.Join(dir, "clean.jsonl")
	chaosOut := filepath.Join(dir, "chaos.jsonl")
	if err := run(smokeArgs("-out", cleanOut, "-checkpoint", "off"), &strings.Builder{}, nil); err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	err := run(smokeArgs("-out", chaosOut,
		"-inject-ckpt-failures", "1+", "-retry", "2", "-retry-backoff", "1ms"), &table, nil)
	if err == nil || !strings.Contains(err.Error(), "dropped sinks") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(table.String(), "sink dropped: "+chaosOut+".ckpt") {
		t.Fatalf("checkpoint drop not reported:\n%s", table.String())
	}
	clean, _ := os.ReadFile(cleanOut)
	chaos, _ := os.ReadFile(chaosOut)
	if string(clean) != string(chaos) {
		t.Fatal("healthy -out sink diverged while the checkpoint sink failed")
	}
}
