package main

import "testing"

func TestParseInts(t *testing.T) {
	got, err := parseInts("8, 12,16")
	if err != nil || len(got) != 3 || got[0] != 8 || got[1] != 12 || got[2] != 16 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("8,x"); err == nil {
		t.Fatal("bad list accepted")
	}
}

func TestRunStallMode(t *testing.T) {
	err := run([]string{"-mode", "stall", "-ns", "8,12", "-trials", "4", "-max-windows", "50000"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSurvivalMode(t *testing.T) {
	err := run([]string{"-mode", "survival", "-n", "12", "-t", "1", "-trials", "4"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSeparationMode(t *testing.T) {
	err := run([]string{"-mode", "separation", "-n", "8", "-t", "1", "-trials", "4", "-max-windows", "50000"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownMode(t *testing.T) {
	if err := run([]string{"-mode", "nope"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestRunRejectsBadBudgets: a negative window budget is refused, as in
// cmd/sweep and cmd/search, instead of printing a table of -1 windows; 0
// stays legal. Fewer than one trial is refused in every mode, instead of a
// table of zeros or a separation verdict drawn from empty decision sets.
func TestRunRejectsBadBudgets(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "stall", "-ns", "8", "-trials", "1", "-max-windows", "-1"}, "max-windows must be >= 0, got -1"},
		{[]string{"-mode", "stall", "-ns", "8", "-trials", "0"}, "trials must be >= 1, got 0"},
		{[]string{"-mode", "survival", "-n", "8", "-t", "1", "-trials", "-2"}, "trials must be >= 1, got -2"},
		{[]string{"-mode", "separation", "-n", "12", "-t", "1", "-trials", "0"}, "trials must be >= 1, got 0"},
	} {
		if err := run(c.args); err == nil || err.Error() != c.want {
			t.Fatalf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
	if err := run([]string{"-mode", "stall", "-ns", "8", "-trials", "1", "-max-windows", "0"}); err != nil {
		t.Fatalf("a zero budget: %v", err)
	}
}
