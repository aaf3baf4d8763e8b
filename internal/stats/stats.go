// Package stats provides the small statistical toolkit used by the
// experiment harness and the sweep engine (sample summaries live in package
// stream, which reduces them online):
//
//   - FitExponential: least-squares fits of y ~ C·exp(αx), the shape the
//     Theorem 5/17 running-time experiments (E2, E7, E8) test against the
//     paper's exponential lower bounds;
//   - Table: deterministic aligned text rendering shared by every
//     experiment table in EXPERIMENTS.md and by registry.Sweep.Table.
//
// Everything here is a pure function of its inputs (Table rows render in
// insertion order), keeping experiment output byte-identical run to run.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// ExpFit is the result of fitting y ~ C * exp(alpha * x).
type ExpFit struct {
	// Alpha is the growth exponent, C the prefactor.
	Alpha, C float64
	// R2 is the coefficient of determination of the underlying linear fit
	// of ln(y) against x.
	R2 float64
}

// FitExponential fits y = C*exp(alpha*x) by least squares on (x, ln y).
// Non-positive ys are skipped. It returns ok=false with fewer than two
// usable points.
func FitExponential(xs, ys []float64) (ExpFit, bool) {
	var px, py []float64
	for i := range xs {
		if i < len(ys) && ys[i] > 0 {
			px = append(px, xs[i])
			py = append(py, math.Log(ys[i]))
		}
	}
	slope, intercept, r2, ok := linearFit(px, py)
	if !ok {
		return ExpFit{}, false
	}
	return ExpFit{Alpha: slope, C: math.Exp(intercept), R2: r2}, true
}

// linearFit performs ordinary least squares y = slope*x + intercept.
func linearFit(xs, ys []float64) (slope, intercept, r2 float64, ok bool) {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0, 0, 0, false
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	det := n*sxx - sx*sx
	if det == 0 {
		return 0, 0, 0, false
	}
	slope = (n*sxy - sx*sy) / det
	intercept = (sy - slope*sx) / n
	ssTot := syy - sy*sy/n
	ssRes := 0.0
	for i := range xs {
		d := ys[i] - (slope*xs[i] + intercept)
		ssRes += d * d
	}
	if ssTot <= 0 {
		r2 = 1
	} else {
		r2 = 1 - ssRes/ssTot
	}
	return slope, intercept, r2, true
}

// Table renders aligned text tables for experiment output.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 0.01 && math.Abs(v) < 1e6:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.3e", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				for pad := len(cell); pad < widths[i]; pad++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
