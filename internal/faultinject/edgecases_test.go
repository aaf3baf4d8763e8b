package faultinject

import (
	"reflect"
	"testing"
)

// TestParseTrialSetEdgeCases tables the spec-parsing boundary conditions —
// empty spec, single trial, reversed and overlapping ranges, degenerate
// seeded selections, max-int bounds — asserting the exact one-line error
// message where parsing must fail, and the materialized members where it
// must not.
func TestParseTrialSetEdgeCases(t *testing.T) {
	const maxInt = "9223372036854775807"
	cases := []struct {
		name, spec string
		want       []int  // materialized members (total 10^6), nil with wantNil
		wantNil    bool   // empty spec: nil set, nil error
		wantErr    string // exact error message, "" = parse succeeds
	}{
		{name: "empty spec", spec: "", wantNil: true},
		{name: "blank spec", spec: "   ", wantNil: true},
		{name: "single trial", spec: "5", want: []int{5}},
		{name: "single trial zero", spec: "0", want: []int{0}},
		{name: "degenerate range", spec: "4-4", want: []int{4}},
		{name: "reversed range", spec: "9-3",
			wantErr: `faultinject: bad trial range "9-3"`},
		{name: "overlapping ranges union", spec: "3-5,4-6", want: []int{3, 4, 5, 6}},
		{name: "duplicate entries union", spec: "7,7,7", want: []int{7}},
		{name: "whitespace tolerated", spec: " 1 , 3 ", want: []int{1, 3}},
		{name: "trailing comma tolerated", spec: "2,", want: []int{2}},
		{name: "comma only", spec: ",",
			wantErr: `faultinject: empty trial set ","`},
		{name: "negative index", spec: "-3",
			wantErr: `faultinject: bad trial index "-3" (want non-negative integers, ranges, or rand:K@seed)`},
		{name: "non-numeric", spec: "x",
			wantErr: `faultinject: bad trial index "x" (want non-negative integers, ranges, or rand:K@seed)`},
		{name: "seeded zero count", spec: "rand:0@5",
			wantErr: `faultinject: bad seeded set "rand:0@5": count must be a positive integer`},
		{name: "seeded negative count", spec: "rand:-2@5",
			wantErr: `faultinject: bad seeded set "rand:-2@5": count must be a positive integer`},
		{name: "seeded three at seed 42", spec: "rand:3@42", want: []int{275413, 817960, 934247}},
		{name: "seeded missing seed", spec: "rand:3",
			wantErr: `faultinject: bad seeded set "rand:3" (want rand:K@seed)`},
		{name: "max-int single trial", spec: maxInt, want: []int{1<<63 - 1}},
		{name: "int overflow", spec: "9223372036854775808",
			wantErr: `faultinject: bad trial index "9223372036854775808" (want non-negative integers, ranges, or rand:K@seed)`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			set, err := ParseTrialSet(c.spec)
			if c.wantErr != "" {
				if err == nil || err.Error() != c.wantErr {
					t.Fatalf("error = %v, want %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if c.wantNil {
				if set != nil {
					t.Fatalf("want nil set, got %v", set.Indices())
				}
				return
			}
			set.materialize(1_000_000)
			if got := set.Indices(); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("members = %v, want %v", got, c.want)
			}
		})
	}
}

// TestParseTrialSetNegativeRangeBound pins the reversed-bound diagnosis on
// a range whose upper bound is negative: the range error, not the index one.
func TestParseTrialSetNegativeRangeBound(t *testing.T) {
	_, err := ParseTrialSet("3--1")
	if err == nil || err.Error() != `faultinject: bad trial range "3--1"` {
		t.Fatalf("error = %v", err)
	}
}

// TestSeededTrialSetMaxSeed drives the seed through its uint64 extremes.
func TestSeededTrialSetMaxSeed(t *testing.T) {
	set, err := ParseTrialSet("rand:1@18446744073709551615")
	if err != nil {
		t.Fatal(err)
	}
	set.materialize(8)
	if got := set.Indices(); len(got) != 1 || got[0] < 0 || got[0] >= 8 {
		t.Fatalf("members = %v, want one index in [0, 8)", got)
	}
	if _, err := ParseTrialSet("rand:1@18446744073709551616"); err == nil {
		t.Fatal("seed overflowing uint64 accepted")
	}
}

// TestParseWriteFailuresEdgeCases tables the write-failure schedule
// boundary conditions with exact one-line error assertions.
func TestParseWriteFailuresEdgeCases(t *testing.T) {
	cases := []struct {
		name, spec string
		wantNil    bool
		wantErr    string
		fails      []int // 1-based ops that must fail among ops 1..10
	}{
		{name: "empty spec", spec: "", wantNil: true},
		{name: "single failure", spec: "3", fails: []int{3}},
		{name: "span", spec: "2x3", fails: []int{2, 3, 4}},
		{name: "permanent", spec: "8+", fails: []int{8, 9, 10}},
		{name: "composed overlapping", spec: "2x3,3x4", fails: []int{2, 3, 4, 5, 6}},
		{name: "comma only", spec: ",",
			wantErr: `faultinject: empty write-failure schedule ","`},
		{name: "zero op", spec: "0",
			wantErr: `faultinject: bad write-failure span "0" (want N, NxK, or N+)`},
		{name: "zero count", spec: "3x0",
			wantErr: `faultinject: bad write-failure count in "3x0"`},
		{name: "zero permanent", spec: "0+",
			wantErr: `faultinject: bad write-failure span "0+" (want N+ with N >= 1)`},
		{name: "non-numeric", spec: "x",
			wantErr: `faultinject: bad write-failure span "x" (want N, NxK, or N+)`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wf, err := ParseWriteFailures(c.spec)
			if c.wantErr != "" {
				if err == nil || err.Error() != c.wantErr {
					t.Fatalf("error = %v, want %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if c.wantNil {
				if wf != nil {
					t.Fatal("want nil schedule")
				}
				return
			}
			var got []int
			for op := 1; op <= 10; op++ {
				if wf.next() {
					got = append(got, op)
				}
			}
			if !reflect.DeepEqual(got, c.fails) {
				t.Fatalf("failing ops = %v, want %v", got, c.fails)
			}
		})
	}
}
