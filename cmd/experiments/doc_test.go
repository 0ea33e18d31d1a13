package main

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// goldenTable returns the rows of one table in the full-scale golden, keyed
// by lower-cased row name: the whitespace-separated fields after the
// dashed rule, the last cols of which are the table's value columns.
func goldenTable(t *testing.T, golden, name string, cols int) map[string][]string {
	t.Helper()
	_, sec, ok := strings.Cut(golden, "==== "+name+" ====\n")
	if !ok {
		t.Fatalf("full.golden has no %s section", name)
	}
	sec, _, _ = strings.Cut(sec, "\n====")
	_, body, ok := strings.Cut(sec, "---\n")
	if !ok {
		t.Fatalf("full.golden %s has no header rule", name)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) <= cols {
			continue
		}
		key := strings.ToLower(strings.Join(f[:len(f)-cols], " "))
		rows[key] = f[len(f)-cols:]
	}
	return rows
}

// docTable returns the body rows of the Markdown table in EXPERIMENTS.md's
// section under heading, each as its trimmed cells.
func docTable(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	_, sec, ok := strings.Cut(doc, "\n"+heading)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no heading %q", heading)
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	if len(rows) < 2 {
		t.Fatalf("EXPERIMENTS.md %s has no table", heading)
	}
	return rows[2:] // past the header row and its rule
}

// ours returns the measured half of an "ours / paper" cell, without a
// trailing annotation ("40,000 (capped)") or thousands separators.
func ours(cell string) string {
	v, _, _ := strings.Cut(cell, " / ")
	v, _, _ = strings.Cut(v, " (")
	return strings.ReplaceAll(strings.TrimSpace(v), ",", "")
}

// TestExperimentsTablesMatchGolden holds every measured value in
// EXPERIMENTS.md's Tables 1–3 to the full-scale golden, at the doc's
// precision: Table 1's bandwidths are the golden's rounded to one decimal.
// It reads both files and runs nothing. A disagreement means the doc was
// not re-rendered after a change that moved the numbers.
func TestExperimentsTablesMatchGolden(t *testing.T) {
	docBytes, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	goldenBytes, err := os.ReadFile("testdata/full.golden")
	if err != nil {
		t.Fatal(err)
	}
	doc, golden := string(docBytes), string(goldenBytes)
	oneDecimal := func(s string) string {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("golden bandwidth %q: %v", s, err)
		}
		return strconv.FormatFloat(v, 'f', 1, 64)
	}
	same := func(s string) string { return s }

	// Doc column i+1 holds golden value column i, printed at the doc's
	// precision by format[i]; golden columns past format are not ours.
	for _, tc := range []struct {
		heading, section string
		cols             int
		format           []func(string) string
	}{
		// Entries and fitted bandwidth; the paper's bandwidth is not ours.
		{"## Table 1", "TABLE1", 3, []func(string) string{same, oneDecimal}},
		// PoPs, rr and dr at λ_h = 1e5 and 1e6.
		{"## Table 2", "TABLE2", 5, []func(string) string{same, same, same, same, same}},
		// Risk reduction and distance increase R².
		{"## Table 3", "TABLE3", 2, []func(string) string{same, same}},
	} {
		want := goldenTable(t, golden, tc.section, tc.cols)
		rows := docTable(t, doc, tc.heading)
		if len(rows) != len(want) {
			t.Errorf("%s: EXPERIMENTS.md lists %d rows, full.golden %d", tc.heading, len(rows), len(want))
		}
		for _, row := range rows {
			g, ok := want[strings.ToLower(row[0])]
			if !ok {
				t.Errorf("%s: row %q is not in full.golden", tc.heading, row[0])
				continue
			}
			for i, format := range tc.format {
				if got, w := ours(row[i+1]), format(g[i]); got != w {
					t.Errorf("%s, %s, column %d: EXPERIMENTS.md has %s, full.golden %s", tc.heading, row[0], i+2, got, w)
				}
			}
		}
	}
}
