package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func TestSpecsDeterministicPerSeed(t *testing.T) {
	for _, w := range []string{coldEngine, forkWrite} {
		seen := map[string]uint64{}
		for seed := uint64(0); seed < 8; seed++ {
			a, err := specJSON(specFor(w, seed))
			if err != nil {
				t.Fatal(err)
			}
			b, err := specJSON(specFor(w, seed))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s seed %d: two generations differ", w, seed)
			}
			if prev, dup := seen[string(a)]; dup {
				t.Fatalf("%s: seeds %d and %d give the same spec", w, prev, seed)
			}
			seen[string(a)] = seed

			spec, err := scenario.Parse(a)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			cells, err := spec.ExpandGrid()
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			if want := map[string]int{coldEngine: 12, forkWrite: 24}[w]; len(cells) != want {
				t.Fatalf("%s seed %d: %d cells, want %d", w, seed, len(cells), want)
			}
		}
	}
	if specFor(reproQuick, 1) != nil {
		t.Fatal("repro-quick takes no spec")
	}
}

// scenarioOutput renders a scenarios table the way palsweep does.
func scenarioOutput(rounds ...string) string {
	tb := &experiments.Table{
		Name:  "scenarios",
		Title: "declarative scenario sweep",
		Header: []string{"scenario", "workload", "jobs", "gpus", "policy", "sched",
			"avg_jct_s", "p50_jct_s", "p99_jct_s", "mean_wait_s", "makespan_h", "util_pct", "rounds", "truncated"},
	}
	for i, r := range rounds {
		name := []string{"c@policy=pal,sched=fifo", "c@policy=pm-first,sched=las", "c@policy=random-sticky,sched=srtf"}[i]
		truncated := ""
		if i == 2 {
			truncated = "yes (3 unfinished)"
		}
		tb.AddRow(name, "synergy-12.0jph", "2000", "256", "pal", "fifo",
			"2.614e+05", "2.663e+05", "5.676e+05", "2.124e+05", "350.2", "82.23", r, truncated)
		tb.Note("%s: key %016x (c.json)", name, i)
	}
	return tb.String()
}

func TestParserExtractsRoundsAndCells(t *testing.T) {
	tables, err := parseTables(scenarioOutput("4203", "98765", "7"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].Name != "scenarios" {
		t.Fatalf("parsed %d tables", len(tables))
	}
	cells, err := scenarioCells(tables[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("%d cells, want 3", len(cells))
	}
	for i, want := range []int{4203, 98765, 7} {
		if cells[i].Rounds != want || cells[i].Jobs != 2000 || cells[i].GPUs != 256 {
			t.Errorf("cell %d: %+v, want %d rounds", i, cells[i], want)
		}
	}
	if cells[0].Truncated != "" || cells[2].Truncated != "yes (3 unfinished)" {
		t.Errorf("truncated column: %q, %q", cells[0].Truncated, cells[2].Truncated)
	}

	// Experiments output: headers with spaces, elapsed lines between
	// tables.
	a := &experiments.Table{Name: "fig99", Title: "t", Header: []string{"variant", "avg JCT (h)"}}
	a.AddRow("hysteresis on", "1.25")
	a.AddRow("hysteresis off", "")
	b := &experiments.Table{Name: "fig98", Title: "u", Header: []string{"x"}}
	b.AddRow("1")
	out := a.String() + "(fig99 in 1.8s)\n\n" + b.String() + "(fig98 in 0.1s)\n\n"
	tables, err = parseTables(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || len(tables[0].Rows) != 2 || len(tables[1].Rows) != 1 {
		t.Fatalf("parsed %d tables", len(tables))
	}
	if got := tables[0].Header[1]; got != "avg JCT (h)" {
		t.Errorf("header %q", got)
	}
	if got := tables[0].Rows[0]; got[0] != "hysteresis on" || got[1] != "1.25" {
		t.Errorf("row %q", got)
	}
	slower := strings.Replace(out, "(fig99 in 1.8s)", "(fig99 in 9.9s)", 1)
	tables2, err := parseTables(slower)
	if err != nil {
		t.Fatal(err)
	}
	if outputDigest(tables, nil) != outputDigest(tables2, nil) {
		t.Error("elapsed lines reached the digest")
	}
}

func TestPerturbedTableFailsDigestCheck(t *testing.T) {
	good := scenarioOutput("4203", "98765")
	tables, err := parseTables(good)
	if err != nil {
		t.Fatal(err)
	}
	want, err := units(tables, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{spec: &scenario.Spec{}, want: want}
	for name := range want {
		r.names = append(r.names, name)
	}
	// The shape check wants the generated cell shape; the fixture has it.
	r.check("good", sample{Stdout: good})
	if r.failed != 0 || len(r.problems) != 0 {
		t.Fatalf("unperturbed output failed: %v", r.problems)
	}
	bad := strings.Replace(good, "98765", "98766", 1)
	r.check("perturbed", sample{Stdout: bad})
	if r.failed != 1 || r.attempted != 4 {
		t.Fatalf("perturbed output: %d failed of %d, want 1 of 4 (%v)", r.failed, r.attempted, r.problems)
	}
	if !strings.Contains(r.problems[0], "c@policy=pm-first,sched=las: differs") {
		t.Fatalf("problem %q names the wrong cell", r.problems[0])
	}
}

func TestParseSummary(t *testing.T) {
	stderr := "palsweep: 24 scenarios, 2 simulated, 22 snapshot forks, 0 cache hits (0 memory, 0 store), 24 stored, 1 workers, 3.6s total\n"
	got, err := parseSummary(stderr)
	if err != nil {
		t.Fatal(err)
	}
	if want := (sweepCounts{Simulated: 2, SnapshotForks: 22, Stored: 24}); got != want {
		t.Fatalf("%+v, want %+v", got, want)
	}
	got, err = parseSummary("\r\x1b[Kpalsweep: 21 experiments, 169 simulated, 50 cache hits (50 memory, 0 store), 1 workers, 4.9s total\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := (sweepCounts{Simulated: 169, MemoryHits: 50}); got != want {
		t.Fatalf("%+v, want %+v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Fatalf("quartiles %v %v median %v", q1, q3, median(v))
	}
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles %v %v", q1, q3)
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloads)
	}
	e2e := endToEnd(nil, nil, nil, 0)
	if len(e2e) != len(bench.EndToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, an untraced run reports %d", len(bench.EndToEnd), len(e2e))
	}
	for _, m := range bench.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end_to_end %+v, untraced run reports %+v", m, got)
		}
	}
	lm := layerMetrics()
	if len(lm) != len(bench.PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(bench.PerLayer), len(lm))
	}
	for i, m := range lm {
		if p := bench.PerLayer[i]; p.Name != m.Name || p.Unit != m.Unit || p.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, traced run reports %+v", i, p, m)
		}
	}
}
