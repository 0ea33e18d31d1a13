package report

import (
	"bytes"
	"strings"
	"testing"

	"riskroute/internal/geo"
	"riskroute/internal/kde"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "Demo", Columns: []string{"Name", "Value"}}
	tbl.AddRow("alpha", "1.00")
	tbl.AddRow("beta-long-name", "2.50")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Demo", "Name", "Value", "alpha", "beta-long-name", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Data rows align: the Value column starts at the same offset.
	if idx1, idx2 := strings.Index(lines[3], "1.00"), strings.Index(lines[4], "2.50"); idx1 != idx2 {
		t.Errorf("columns not aligned: %d vs %d\n%s", idx1, idx2, out)
	}
}

func TestTableAddRowPanics(t *testing.T) {
	tbl := &Table{Columns: []string{"A", "B"}}
	defer func() {
		if recover() == nil {
			t.Error("short row should panic")
		}
	}()
	tbl.AddRow("only-one")
}

func TestHeatMap(t *testing.T) {
	grid := geo.NewGrid(geo.ContinentalUS, 10, 20)
	f := kde.NewField(grid)
	// One hot cell in the northeast corner.
	f.Values[grid.Index(9, 19)] = 1
	out := HeatMap(f, 10, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("got %d lines", len(lines))
	}
	// North at top: the hot glyph must be in the first line, far right.
	if !strings.ContainsAny(lines[0], "@%#") {
		t.Errorf("hot cell not at top: %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.ContainsAny(l, "@%#") {
			t.Errorf("unexpected hot glyph in %q", l)
		}
	}
}

func TestScatter(t *testing.T) {
	pts := []ScatterPoint{
		{Label: "alpha", X: 0.1, Y: 0.2},
		{Label: "beta", X: 0.3, Y: 0.05},
	}
	out := Scatter(pts, 10, 30, "distance", "risk")
	for _, want := range []string{"alpha", "beta", "distance", "risk", "a = alpha"} {
		if !strings.Contains(out, want) {
			t.Errorf("scatter missing %q:\n%s", want, out)
		}
	}
	if got := Scatter(nil, 5, 5, "x", "y"); !strings.Contains(got, "no points") {
		t.Errorf("empty scatter = %q", got)
	}
}

func TestSeriesTable(t *testing.T) {
	tbl := SeriesTable("Decay", "links", []string{"1", "2", "3"}, []Series{
		{Name: "Level3", Values: []float64{0.98, 0.97, 0.96}},
		{Name: "Sprint", Values: []float64{0.9, 0.85}},
	})
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[2][2] != "-" {
		t.Errorf("missing value should render '-', got %q", tbl.Rows[2][2])
	}
	if tbl.Rows[0][1] != "0.980" {
		t.Errorf("value formatting: %q", tbl.Rows[0][1])
	}
}

func TestUSOutline(t *testing.T) {
	pts := []geo.Point{
		{Lat: 40.71, Lon: -74.01}, // NYC: top-right region
		{Lat: 29.76, Lon: -95.37}, // Houston: bottom-middle
		{Lat: 21.0, Lon: -157.0},  // Hawaii: outside, dropped
	}
	out := USOutline(pts, 'x', 20, 60)
	if strings.Count(out, "x") != 2 {
		t.Errorf("want 2 marks, got %d:\n%s", strings.Count(out, "x"), out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 20 {
		t.Fatalf("lines = %d", len(lines))
	}
	// NYC should be in the upper half, Houston in the lower half.
	nycLine, houLine := -1, -1
	for i, l := range lines {
		if strings.Contains(l, "x") {
			if nycLine == -1 {
				nycLine = i
			} else {
				houLine = i
			}
		}
	}
	if nycLine >= houLine {
		t.Errorf("NYC (line %d) should be above Houston (line %d)", nycLine, houLine)
	}
}
