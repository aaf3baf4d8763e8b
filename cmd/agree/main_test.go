package main

import (
	"strings"
	"testing"

	"asyncagree"
)

func TestRunCoreSplitVote(t *testing.T) {
	err := run([]string{
		"-alg", "core", "-n", "12", "-t", "1",
		"-inputs", "split", "-adversary", "splitvote",
		"-seed", "3", "-max-windows", "200000",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunBrachaFull(t *testing.T) {
	err := run([]string{
		"-alg", "bracha", "-n", "7", "-t", "2",
		"-inputs", "ones", "-adversary", "full", "-max-windows", "500",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSilenceAdversary(t *testing.T) {
	err := run([]string{
		"-alg", "core", "-n", "12", "-t", "1",
		"-inputs", "zeros", "-adversary", "silence", "-max-windows", "100",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunLaggardScheduler(t *testing.T) {
	err := run([]string{
		"-alg", "core", "-n", "12", "-t", "1",
		"-inputs", "split", "-adversary", "storm", "-sched", "laggard",
		"-max-windows", "200000",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-alg", "nope", "-n", "8", "-t", "1"},
		{"-inputs", "nope"},
		{"-adversary", "nope"},
		{"-sched", "nope"},
		{"-alg", "core", "-n", "12", "-t", "3"}, // t >= n/6
		{"-max-windows", "-5"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestSafetyVerdict: a violation is exit 1 naming the algorithm only where
// the descriptor says safety is certain; for committee it is a result.
func TestSafetyVerdict(t *testing.T) {
	safe := asyncagree.RunResult{Agreement: true, Validity: true}
	for _, res := range []asyncagree.RunResult{{Validity: true}, {Agreement: true}, {}} {
		err := safetyVerdict("core", res)
		if err == nil || !strings.Contains(err.Error(), "core") {
			t.Fatalf("core with %+v: err = %v, want a violation naming core", res, err)
		}
		if err := safetyVerdict("committee", res); err != nil {
			t.Fatalf("committee with %+v: err = %v, want nil (a measured outcome)", res, err)
		}
	}
	for _, alg := range []string{"core", "committee"} {
		if err := safetyVerdict(alg, safe); err != nil {
			t.Fatalf("%s safe run: err = %v", alg, err)
		}
	}
}
