// Package trace renders simulation output: CSV/TSV time-series writers
// for the experiment harness and quick ASCII line plots for terminal
// use.
package trace

import (
	"fmt"
	"io"
	"strings"

	"parsurf/internal/stats"
)

// WriteCSV writes one or more series sharing the first series' time
// base as a CSV table with the given column names (the first name is
// the time column). Series with different sample times are interpolated
// onto the first series' times.
func WriteCSV(w io.Writer, names []string, series ...*stats.Series) error {
	if len(series) == 0 {
		return fmt.Errorf("trace: no series")
	}
	if len(names) != len(series)+1 {
		return fmt.Errorf("trace: %d names for %d columns", len(names), len(series)+1)
	}
	if _, err := fmt.Fprintln(w, strings.Join(names, ",")); err != nil {
		return err
	}
	base := series[0]
	for i, t := range base.T {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf("%g", t))
		row = append(row, fmt.Sprintf("%g", base.X[i]))
		for _, s := range series[1:] {
			row = append(row, fmt.Sprintf("%g", s.At(t)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// ASCIIPlot renders the series as a rows×cols character plot spanning
// the series' full time range, with one mark per column and a labeled
// value axis. Multiple series are overlaid with distinct marks. It
// returns "" when there is nothing to draw: fewer than two rows or
// columns, or no series, or an empty one.
func ASCIIPlot(rows, cols int, marks string, series ...*stats.Series) string {
	if rows < 2 || cols < 2 || len(series) == 0 {
		return ""
	}
	for _, s := range series {
		if s.Len() == 0 {
			return ""
		}
	}
	lo, hi := series[0].T[0], series[0].T[series[0].Len()-1]
	ymin, ymax := stats.MinMax(series[0].X)
	for _, s := range series[1:] {
		l, h := stats.MinMax(s.X)
		if l < ymin {
			ymin = l
		}
		if h > ymax {
			ymax = h
		}
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	for si, s := range series {
		mark := byte('*')
		if si < len(marks) {
			mark = marks[si]
		}
		for c := 0; c < cols; c++ {
			t := lo + (hi-lo)*float64(c)/float64(cols-1)
			v := s.At(t)
			r := int((ymax - v) / (ymax - ymin) * float64(rows-1))
			if r < 0 {
				r = 0
			}
			if r >= rows {
				r = rows - 1
			}
			grid[r][c] = mark
		}
	}
	var b strings.Builder
	for r := range grid {
		label := "        "
		if r == 0 {
			label = fmt.Sprintf("%7.3f ", ymax)
		} else if r == rows-1 {
			label = fmt.Sprintf("%7.3f ", ymin)
		}
		b.WriteString(label)
		b.WriteString("|")
		b.Write(grid[r])
		b.WriteByte('\n')
	}
	b.WriteString(fmt.Sprintf("        +%s\n", strings.Repeat("-", cols)))
	b.WriteString(fmt.Sprintf("         t=%.3g%st=%.3g\n", lo, strings.Repeat(" ", max(1, cols-14)), hi))
	return b.String()
}

// Table renders rows of cells as an aligned text table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
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
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
