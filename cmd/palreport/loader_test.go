package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/store"
)

// These tests drive palreport as a process (the test binary re-executed
// as the command), so they pin what a user sees — stdout, stderr and the
// exit status — independently of how the -in loader is put together.

const mainEnv = "PALREPORT_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// palreport runs the command with args and returns its stdout, stderr
// and exit status.
func palreport(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// loaderSpec is a small run with telemetry on, formatted with the
// policy (twice) and any extra blocks.
const loaderSpec = `{
  "name": "loader-%s",
  "seed": 5,
  "cluster": {"nodes": 2, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 16, "jobs_per_hour": 20, "median_work_sec": 1800},
  "policy": {"name": "%s"},
  "metrics": {"enabled": true}%s
}`

// saveJSON creates path and writes save's output into it.
func saveJSON(t *testing.T, path string, save func(f *os.File) error) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// archivePolicy simulates the loader spec under policy and archives the
// result: its payload (and trace, with decisions) as <name>.metrics.json
// and <name>.decisions.json in dir, key stamped the way palsweep
// -metrics writes them, and the whole result in the store at storeDir.
// Either destination may be empty.
func archivePolicy(t *testing.T, policy string, decisions bool, dir, storeDir string) {
	t.Helper()
	extra := ""
	if decisions {
		extra = `, "decisions": {"enabled": true}`
	}
	spec, err := scenario.Parse([]byte(fmt.Sprintf(loaderSpec, policy, policy, extra)))
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := built.Run()
	if err != nil {
		t.Fatal(err)
	}
	if dir != "" {
		p := *metrics.FromResult(res)
		p.Key = built.Key()
		saveJSON(t, filepath.Join(dir, spec.Name+".metrics.json"), func(f *os.File) error { return p.Save(f) })
		if tr := decision.FromResult(res); tr != nil {
			cp := *tr
			cp.Key = built.Key()
			saveJSON(t, filepath.Join(dir, spec.Name+".decisions.json"), func(f *os.File) error { return cp.Save(f) })
		}
	}
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(built.Key(), res); err != nil {
			t.Fatal(err)
		}
	}
}

// tableLines returns the lines of the named table in a -format md
// report, sorted: its rows and notes, not their order.
func tableLines(t *testing.T, report, name string) []string {
	t.Helper()
	var lines []string
	in := false
	for _, l := range strings.Split(report, "\n") {
		switch {
		case strings.HasPrefix(l, "### "):
			in = strings.HasPrefix(l, "### "+name+" ")
		case in && l != "":
			lines = append(lines, l)
		}
	}
	if len(lines) == 0 {
		t.Fatalf("no %s table in:\n%s", name, report)
	}
	sort.Strings(lines)
	return lines
}

// TestMetricsDirAndStoreAgree: a metrics directory and a store holding
// the same runs give the same metrics_summary rows.
func TestMetricsDirAndStoreAgree(t *testing.T) {
	tmp := t.TempDir()
	dir, storeDir := filepath.Join(tmp, "out"), filepath.Join(tmp, "store")
	for _, policy := range []string{"pal", "packed-sticky"} {
		archivePolicy(t, policy, false, dir, storeDir)
	}
	fromDir, stderr, code := palreport(t, "-in", dir, "-format", "md")
	if code != 0 || stderr != "" {
		t.Fatalf("-in %s: exit %d, stderr %q", dir, code, stderr)
	}
	fromStore, stderr, code := palreport(t, "-in", storeDir, "-format", "md")
	if code != 0 || stderr != "" {
		t.Fatalf("-in %s: exit %d, stderr %q", storeDir, code, stderr)
	}
	d, s := tableLines(t, fromDir, "metrics_summary"), tableLines(t, fromStore, "metrics_summary")
	if strings.Join(d, "\n") != strings.Join(s, "\n") {
		t.Errorf("metrics_summary differs:\ndirectory:\n%s\nstore:\n%s", strings.Join(d, "\n"), strings.Join(s, "\n"))
	}
	if len(d) != 6 { // header, rule, two rows, two key notes
		t.Errorf("metrics_summary has %d lines, want 6:\n%s", len(d), strings.Join(d, "\n"))
	}
}

// TestDecisionsToleratesMetricsOnlyTokens: -decisions reads traces from
// the same -in as the payloads, so a token that holds only payloads is
// skipped, not an error; with no trace anywhere, the metric tables are
// still printed before the error.
func TestDecisionsToleratesMetricsOnlyTokens(t *testing.T) {
	tmp := t.TempDir()
	metricsOnly, mixed := filepath.Join(tmp, "metrics-only"), filepath.Join(tmp, "mixed")
	archivePolicy(t, "packed-sticky", false, metricsOnly, "")
	archivePolicy(t, "pal", true, mixed, "")

	stdout, stderr, code := palreport(t, "-in", metricsOnly+","+mixed, "-decisions", "-format", "md")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	rows := tableLines(t, stdout, "decisions_summary")
	if len(rows) != 4 || !strings.HasPrefix(rows[1], "| loader-pal | pal | fifo |") {
		t.Errorf("decisions_summary should hold the one loader-pal trace:\n%s", strings.Join(rows, "\n"))
	}

	stdout, stderr, code = palreport(t, "-in", metricsOnly, "-decisions", "-format", "md")
	want := "palreport: -decisions: no decision traces found in \"" + metricsOnly + "\" (enable the spec's decisions block and re-archive)\n"
	if code != 2 || stderr != want {
		t.Errorf("exit %d, stderr %q; want exit 2 and %q", code, stderr, want)
	}
	tableLines(t, stdout, "metrics_summary")
}

// TestOlderCodecStoreNote: a store root holding only an older codec's
// tree says so before failing for want of payloads.
func TestOlderCodecStoreNote(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(filepath.Join(storeDir, "v1", "objects"), 0o755); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := palreport(t, "-in", storeDir)
	want := "palreport: store " + storeDir + " holds no objects for the current codec (older-version trees present; re-run the sweeps, then `palstore gc` reclaims the old tree)\n" +
		"palreport: no payloads found in \"" + storeDir + "\"\n"
	if code != 2 || stdout != "" || stderr != want {
		t.Errorf("exit %d, stdout %q, stderr\n%s\nwant exit 2 and\n%s", code, stdout, stderr, want)
	}
}

// TestGridCountsForcedRecordingCells: palsweep -metrics force-enables a
// grid spec's telemetry block, so it stores each cell under the forced
// key. palreport -grid over the spec as written must still count every
// cell present.
func TestGridCountsForcedRecordingCells(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(specPath, []byte(reportGridSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	// What palsweep -scenario grid.json -metrics out -store st stores.
	spec, err := scenario.LoadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	spec.Metrics.Enabled = true
	spec.Normalize()
	cells, err := spec.ExpandGrid()
	if err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		b, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(b.Key(), res); err != nil {
			t.Fatal(err)
		}
	}

	stdout, stderr, code := palreport(t, "-in", storeDir, "-grid", specPath, "-format", "md")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "8 of 8 grid cells present, 0 missing") || strings.Contains(stdout, "MISSING") {
		t.Errorf("cells stored under their forced-recording keys counted missing:\n%s", stdout)
	}
	if got := len(tableLines(t, stdout, "metrics_summary")); got != 18 { // header, rule, 8 rows, 8 key notes
		t.Errorf("metrics_summary has %d lines, want 18", got)
	}
}
