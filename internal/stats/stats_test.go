package stats

import (
	"math"
	"strings"
	"testing"
)

func TestFitExponentialRecoversParameters(t *testing.T) {
	// y = 2 * exp(0.3 x), exactly.
	var xs, ys []float64
	for x := 1.0; x <= 10; x++ {
		xs = append(xs, x)
		ys = append(ys, 2*math.Exp(0.3*x))
	}
	fit, ok := FitExponential(xs, ys)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(fit.Alpha-0.3) > 1e-9 || math.Abs(fit.C-2) > 1e-9 {
		t.Fatalf("fit = %+v", fit)
	}
	if fit.R2 < 0.999999 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitExponentialSkipsNonPositive(t *testing.T) {
	fit, ok := FitExponential([]float64{1, 2, 3, 4}, []float64{0, math.E, math.E * math.E, math.E * math.E * math.E})
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(fit.Alpha-1) > 1e-9 {
		t.Fatalf("Alpha = %v", fit.Alpha)
	}
}

func TestFitExponentialTooFewPoints(t *testing.T) {
	if _, ok := FitExponential([]float64{1}, []float64{2}); ok {
		t.Fatal("fit with one point succeeded")
	}
	if _, ok := FitExponential([]float64{1, 1}, []float64{2, 3}); ok {
		t.Fatal("fit with degenerate x succeeded")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("n", "mean", "note")
	tbl.AddRow(8, 123.456, "ok")
	tbl.AddRow(16, 0.000012, "tiny")
	out := tbl.String()
	if !strings.Contains(out, "n") || !strings.Contains(out, "123.456") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	if !strings.Contains(out, "1.200e-05") {
		t.Fatalf("scientific formatting missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines (header, sep, 2 rows), got %d:\n%s", len(lines), out)
	}
}
