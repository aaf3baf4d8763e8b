package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	exps := All()
	if len(exps) != 16 {
		t.Fatalf("registry has %d experiments, want 16", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if !strings.HasPrefix(e.ID, "E") {
			t.Fatalf("bad id %q", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
}

func TestGet(t *testing.T) {
	e, err := Get("E4")
	if err != nil || e.ID != "E4" {
		t.Fatalf("Get(E4) = %+v, %v", e, err)
	}
	if _, err := Get("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// render formats one result the way cmd/experiments prints it, without the
// elapsed time.
func render(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n\n%s\n", res.ID, res.Title, res.Table)
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// TestAllExperimentsQuick runs every experiment at quick scale and requires
// the paper's qualitative claims to hold. This is the repository's
// end-to-end reproduction check. The rendered tables and notes must also
// match testdata/quick.golden byte for byte: every experiment is
// deterministic given its built-in seeds, so a refactor of the drivers or
// of the trial fan-out under them cannot move a digit unnoticed. After an
// intended change, regenerate it from the CLI, which prints the same text
// plus elapsed times:
//
//	go run ./cmd/experiments | sed -E 's/ \([0-9.]+s\)$//' > internal/experiments/testdata/quick.golden
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are expensive")
	}
	var got strings.Builder
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(ScaleQuick)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if res.ID != e.ID {
				t.Fatalf("result id %q != %q", res.ID, e.ID)
			}
			if res.Table == nil || res.Table.String() == "" {
				t.Fatalf("%s produced no table", e.ID)
			}
			if !res.Pass {
				t.Fatalf("%s FAILED the paper claim:\n%s\nnotes: %v", e.ID, res.Table, res.Notes)
			}
			got.WriteString(render(res))
		})
	}
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("tables differ from testdata/quick.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
