// Package report renders experiment results for terminals and files: fixed-
// width text tables (the paper's Tables 1-3), ASCII heat maps (the KDE and
// population surfaces of Figures 3-6), scatter plots (Figure 8), line/series
// summaries (Figures 10, 12, 13), and standalone SVG maps.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"riskroute/internal/geo"
	"riskroute/internal/kde"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row; it panics if the width differs from Columns.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells for %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table with column alignment and a rule under the header.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// shadeRamp orders glyphs from empty to dense for heat maps.
const shadeRamp = " .:-=+*#%@"

// HeatMap renders a field as an ASCII raster, north at the top, one
// character per cell, with intensity mapped linearly onto the shade ramp.
// Rows and cols bound the output size; the field is resampled by averaging.
func HeatMap(f *kde.Field, rows, cols int) string {
	if rows <= 0 {
		rows = 24
	}
	if cols <= 0 {
		cols = 72
	}
	grid := f.Grid
	samples := make([]float64, rows*cols)
	counts := make([]int, rows*cols)
	for r := 0; r < grid.Rows; r++ {
		rr := r * rows / grid.Rows
		for c := 0; c < grid.Cols; c++ {
			cc := c * cols / grid.Cols
			samples[rr*cols+cc] += f.Values[grid.Index(r, c)]
			counts[rr*cols+cc]++
		}
	}
	max := 0.0
	for i := range samples {
		if counts[i] > 0 {
			samples[i] /= float64(counts[i])
		}
		if samples[i] > max {
			max = samples[i]
		}
	}
	var b strings.Builder
	for r := rows - 1; r >= 0; r-- { // north at top
		for c := 0; c < cols; c++ {
			v := samples[r*cols+c]
			idx := 0
			if max > 0 {
				idx = int(v / max * float64(len(shadeRamp)-1))
			}
			if idx >= len(shadeRamp) {
				idx = len(shadeRamp) - 1
			}
			b.WriteByte(shadeRamp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ScatterPoint is one labeled point of a scatter plot.
type ScatterPoint struct {
	Label string
	X, Y  float64
}

// Scatter renders labeled points on an ASCII grid with axis annotations —
// used for the paper's Figure 8 (distance ratio vs risk ratio per regional
// network). Points use the first letter of their label; collisions show '+'.
func Scatter(points []ScatterPoint, rows, cols int, xLabel, yLabel string) string {
	if len(points) == 0 {
		return "(no points)\n"
	}
	if rows <= 0 {
		rows = 20
	}
	if cols <= 0 {
		cols = 60
	}
	minX, maxX := points[0].X, points[0].X
	minY, maxY := points[0].Y, points[0].Y
	for _, p := range points[1:] {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	cells := make([]byte, rows*cols)
	for i := range cells {
		cells[i] = ' '
	}
	for _, p := range points {
		c := int(float64(cols-1) * (p.X - minX) / (maxX - minX))
		r := int(float64(rows-1) * (p.Y - minY) / (maxY - minY))
		idx := r*cols + c
		ch := byte('?')
		if len(p.Label) > 0 {
			ch = p.Label[0]
		}
		if cells[idx] != ' ' {
			ch = '+'
		}
		cells[idx] = ch
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (y: %.3f .. %.3f)\n", yLabel, minY, maxY)
	for r := rows - 1; r >= 0; r-- {
		b.WriteByte('|')
		b.Write(cells[r*cols : (r+1)*cols])
		b.WriteByte('\n')
	}
	b.WriteString("+" + strings.Repeat("-", cols) + "\n")
	fmt.Fprintf(&b, "%s (x: %.3f .. %.3f)\n", xLabel, minX, maxX)
	for _, p := range points {
		fmt.Fprintf(&b, "  %c = %s (%.3f, %.3f)\n", p.Label[0], p.Label, p.X, p.Y)
	}
	return b.String()
}

// Series is one named line of a time/step series.
type Series struct {
	Name   string
	Values []float64
}

// SeriesTable renders multiple aligned series as a table with one row per
// step — the textual form of the paper's Figures 10, 12, and 13.
func SeriesTable(title string, stepLabel string, steps []string, series []Series) *Table {
	t := &Table{Title: title, Columns: append([]string{stepLabel}, namesOf(series)...)}
	for i, step := range steps {
		row := []string{step}
		for _, s := range series {
			if i < len(s.Values) {
				row = append(row, fmt.Sprintf("%.3f", s.Values[i]))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

func namesOf(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Name
	}
	return out
}

// USOutline renders a set of points (e.g. PoP locations) onto a continental-
// US ASCII map, marking points with the given rune — the textual analogue of
// the paper's Figure 1 network maps.
func USOutline(points []geo.Point, mark byte, rows, cols int) string {
	if rows <= 0 {
		rows = 22
	}
	if cols <= 0 {
		cols = 72
	}
	b := geo.ContinentalUS
	cells := make([]byte, rows*cols)
	for i := range cells {
		cells[i] = ' '
	}
	for _, p := range points {
		if !b.Contains(p) {
			continue
		}
		r := int(float64(rows-1) * (p.Lat - b.MinLat) / (b.MaxLat - b.MinLat))
		c := int(float64(cols-1) * (p.Lon - b.MinLon) / (b.MaxLon - b.MinLon))
		cells[r*cols+c] = mark
	}
	var sb strings.Builder
	for r := rows - 1; r >= 0; r-- {
		sb.WriteByte('|')
		sb.Write(cells[r*cols : (r+1)*cols])
		sb.WriteString("|\n")
	}
	return sb.String()
}
