package trace

import (
	"bytes"
	"strings"
	"testing"

	"parsurf/internal/stats"
)

func mkSeries(points ...float64) *stats.Series {
	s := &stats.Series{}
	for i := 0; i+1 < len(points); i += 2 {
		s.Append(points[i], points[i+1])
	}
	return s
}

func TestWriteCSV(t *testing.T) {
	a := mkSeries(0, 1, 1, 2, 2, 3)
	b := mkSeries(0, 10, 2, 30)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []string{"t", "a", "b"}, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %v", lines)
	}
	if lines[0] != "t,a,b" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[2] != "1,2,20" { // b interpolated at t=1
		t.Fatalf("row %q", lines[2])
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []string{"t"}); err == nil {
		t.Fatal("no series accepted")
	}
	if err := WriteCSV(&buf, []string{"t"}, mkSeries(0, 1)); err == nil {
		t.Fatal("wrong name count accepted")
	}
}

func TestASCIIPlot(t *testing.T) {
	s := mkSeries(0, 0, 5, 1, 10, 0)
	out := ASCIIPlot(10, 40, "*", s)
	if out == "" {
		t.Fatal("empty plot")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no marks plotted")
	}
	if !strings.Contains(out, "1.000") || !strings.Contains(out, "0.000") {
		t.Fatalf("axis labels missing:\n%s", out)
	}
	// Degenerate inputs return empty rather than panicking.
	if ASCIIPlot(1, 40, "*", s) != "" || ASCIIPlot(10, 1, "*", s) != "" || ASCIIPlot(10, 10, "*") != "" {
		t.Fatal("degenerate plot not empty")
	}
	if ASCIIPlot(10, 40, "*", &stats.Series{}) != "" || ASCIIPlot(10, 40, "*", s, &stats.Series{}) != "" {
		t.Fatal("plot of an empty series not empty")
	}
}

func TestASCIIPlotOverlay(t *testing.T) {
	a := mkSeries(0, 0, 10, 1)
	b := mkSeries(0, 1, 10, 0)
	out := ASCIIPlot(8, 30, "ox", a, b)
	if !strings.Contains(out, "o") || !strings.Contains(out, "x") {
		t.Fatalf("overlay marks missing:\n%s", out)
	}
}

func TestASCIIPlotConstantSeries(t *testing.T) {
	s := mkSeries(0, 0.5, 10, 0.5)
	if out := ASCIIPlot(5, 20, "*", s); out == "" {
		t.Fatal("constant series plot empty")
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"name", "value"}, [][]string{
		{"alpha", "1"},
		{"b", "22222"},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], "name ") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[1], "-----") {
		t.Fatalf("separator %q", lines[1])
	}
}
