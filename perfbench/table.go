package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// table is one rendered experiments.Table as palsweep prints it in
// text format: a "== name: title ==" line, a header, a dashed
// separator, rows and "note:" lines.
type table struct {
	Name   string
	Lines  []string // every line of the table, title line included
	Header []string
	Rows   [][]string
	Notes  []string
}

// elapsedLine matches the "(fig11 in 4.6s)" line palsweep prints after
// each experiment's table: wall-clock, so it is left out of digests.
var elapsedLine = regexp.MustCompile(`^\([A-Za-z0-9_]+ in [0-9.]+s\)$`)

// parseTables splits palsweep's text output into its tables.
func parseTables(out string) ([]*table, error) {
	var tables []*table
	var cur *table
	var header string
	var spans [][2]int
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " =="):
			name, _, ok := strings.Cut(strings.TrimPrefix(line, "== "), ":")
			if !ok {
				return nil, fmt.Errorf("malformed table title %q", line)
			}
			cur = &table{Name: name, Lines: []string{line}}
			tables = append(tables, cur)
			header, spans = "", nil
			continue
		case cur == nil, line == "", elapsedLine.MatchString(line):
			continue
		}
		cur.Lines = append(cur.Lines, line)
		switch {
		case header == "":
			header = line
		case spans == nil:
			if spans = columnSpans(line); len(spans) == 0 {
				return nil, fmt.Errorf("table %s: malformed separator %q", cur.Name, line)
			}
			cur.Header = splitRow(header, spans)
		case strings.HasPrefix(line, "note: "):
			cur.Notes = append(cur.Notes, strings.TrimPrefix(line, "note: "))
		default:
			cur.Rows = append(cur.Rows, splitRow(line, spans))
		}
	}
	for _, t := range tables {
		if t.Header == nil {
			return nil, fmt.Errorf("table %s: no header and separator", t.Name)
		}
	}
	return tables, nil
}

// columnSpans reads the column extents off a separator line of dash
// runs: the columns are fixed-width, padded to the widest cell, so
// cells with inner spaces ("hysteresis on") split correctly and empty
// cells stay empty.
func columnSpans(sep string) [][2]int {
	var spans [][2]int
	for i := 0; i < len(sep); {
		if sep[i] != '-' {
			if sep[i] != ' ' {
				return nil
			}
			i++
			continue
		}
		j := i
		for j < len(sep) && sep[j] == '-' {
			j++
		}
		spans = append(spans, [2]int{i, j})
		i = j
	}
	return spans
}

// splitRow cuts a row at the column spans; the last column runs to the
// end of the line.
func splitRow(line string, spans [][2]int) []string {
	cells := make([]string, len(spans))
	for i, sp := range spans {
		if sp[0] >= len(line) {
			continue
		}
		end := len(line)
		if i+1 < len(spans) && spans[i+1][0] < end {
			end = spans[i+1][0]
		}
		cells[i] = strings.TrimSpace(line[sp[0]:end])
	}
	return cells
}

// column returns the index of the named header column, or -1.
func (t *table) column(name string) int {
	for i, h := range t.Header {
		if h == name {
			return i
		}
	}
	return -1
}

// digest hashes lines; the first 16 hex digits identify them.
func digest(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// cell is one row of palsweep's "scenarios" table with the fields the
// checks read.
type cell struct {
	Name      string
	Jobs      int
	GPUs      int
	Rounds    int
	Truncated string
	Digest    string // row plus its key note
}

// scenarioCells extracts the cells of a scenario sweep's table.
func scenarioCells(t *table) ([]cell, error) {
	cols := map[string]int{}
	for _, name := range []string{"scenario", "jobs", "gpus", "rounds", "truncated"} {
		if cols[name] = t.column(name); cols[name] < 0 {
			return nil, fmt.Errorf("table %s: no %q column", t.Name, name)
		}
	}
	notes := map[string]string{}
	for _, n := range t.Notes {
		name, _, _ := strings.Cut(n, ": key ")
		notes[name] = n
	}
	cells := make([]cell, 0, len(t.Rows))
	for _, row := range t.Rows {
		if len(row) != len(t.Header) {
			return nil, fmt.Errorf("table %s: row %q has %d cells, header %d", t.Name, row, len(row), len(t.Header))
		}
		c := cell{Name: row[cols["scenario"]], Truncated: row[cols["truncated"]]}
		var err error
		for _, f := range []struct {
			col string
			dst *int
		}{{"jobs", &c.Jobs}, {"gpus", &c.GPUs}, {"rounds", &c.Rounds}} {
			if *f.dst, err = strconv.Atoi(row[cols[f.col]]); err != nil {
				return nil, fmt.Errorf("table %s: cell %s: %s %q: %w", t.Name, c.Name, f.col, row[cols[f.col]], err)
			}
		}
		c.Digest = digest(append(append([]string(nil), row...), notes[c.Name]))
		cells = append(cells, c)
	}
	return cells, nil
}

// units maps each checked unit of an output to its digest: grid cells
// for a scenario sweep, tables for an experiments sweep. Tables named
// in skip (wall-clock content) are left out.
func units(tables []*table, skip map[string]bool) (map[string]string, error) {
	u := map[string]string{}
	for _, t := range tables {
		if skip[t.Name] {
			continue
		}
		if t.Name != "scenarios" {
			u[t.Name] = digest(t.Lines)
			continue
		}
		cells, err := scenarioCells(t)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			u[c.Name] = c.Digest
		}
	}
	return u, nil
}

// outputDigest is the digest of a whole output, over its units in
// order of appearance.
func outputDigest(tables []*table, skip map[string]bool) string {
	var lines []string
	for _, t := range tables {
		if !skip[t.Name] {
			lines = append(lines, t.Lines...)
		}
	}
	return digest(lines)
}

// sweepCounts is the runner summary palsweep prints on stderr:
// "N scenarios, X simulated, Y snapshot forks, Z cache hits (a memory,
// b store), S stored".
type sweepCounts struct {
	Simulated, SnapshotForks, MemoryHits, StoreHits, Stored int
}

var summaryLine = regexp.MustCompile(`palsweep: \d+ (?:scenarios|experiments), (\d+) simulated(?:, (\d+) snapshot forks)?, \d+ cache hits \((\d+) memory, (\d+) store\)(?:, (\d+) stored)?`)

// parseSummary extracts the runner counts from palsweep's stderr.
func parseSummary(stderr string) (sweepCounts, error) {
	m := summaryLine.FindStringSubmatch(stderr)
	if m == nil {
		return sweepCounts{}, fmt.Errorf("no sweep summary in palsweep stderr")
	}
	n := func(s string) int {
		v, _ := strconv.Atoi(s) // the regexp admits digits only; "" reads 0
		return v
	}
	return sweepCounts{Simulated: n(m[1]), SnapshotForks: n(m[2]), MemoryHits: n(m[3]), StoreHits: n(m[4]), Stored: n(m[5])}, nil
}
