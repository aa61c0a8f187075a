// Package exp reproduces the paper's evaluation (Fig. 6 a–d): it
// generates WATERS-parameterized random cause-effect graphs, bounds the
// sink task's worst-case time disparity with Theorem 1 (P-diff) and
// Theorem 2 (S-diff), measures the actual maximum disparity by simulation
// (Sim), applies Algorithm 1 and re-measures (S-diff-B, Sim-B), and
// aggregates the series the paper plots.
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a plain numeric result table: one row per X value, one column
// per series. It is the output format of every experiment runner.
type Table struct {
	// Title names the experiment (e.g. "Fig 6(a)").
	Title string
	// XLabel and Columns name the first column and the series.
	XLabel  string
	Columns []string
	// Rows holds, per X value, the X and the series values.
	Rows []Row
}

// Row is one line of a Table.
type Row struct {
	X      int
	Values []float64
}

// AddRow appends a row; the number of values must match Columns.
func (t *Table) AddRow(x int, values ...float64) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("exp: row has %d values for %d columns", len(values), len(t.Columns)))
	}
	t.Rows = append(t.Rows, Row{X: x, Values: values})
}

// WriteText renders the table with aligned columns, in the spirit of the
// series the paper plots.
func (t *Table) WriteText(w io.Writer) error {
	headers := append([]string{t.XLabel}, t.Columns...)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	cells := make([][]string, len(t.Rows))
	for ri, row := range t.Rows {
		cells[ri] = make([]string, len(headers))
		cells[ri][0] = strconv.Itoa(row.X)
		for ci, v := range row.Values {
			cells[ri][ci+1] = strconv.FormatFloat(v, 'f', 3, 64)
		}
		for ci, c := range cells[ri] {
			if len(c) > widths[ci] {
				widths[ci] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	for i, h := range headers {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%*s", widths[i], h)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{t.XLabel}, t.Columns...)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		rec := make([]string, 0, len(row.Values)+1)
		rec = append(rec, strconv.Itoa(row.X))
		for _, v := range row.Values {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Column returns the values of one named series across rows.
func (t *Table) Column(name string) ([]float64, error) {
	for i, c := range t.Columns {
		if c == name {
			out := make([]float64, len(t.Rows))
			for r, row := range t.Rows {
				out[r] = row.Values[i]
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("exp: no column %q", name)
}
