package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/metrics"
	"repro/internal/sim"
)

const mainEnv = "PALSIM_TEST_MAIN"

// TestMain re-executes the test binary as palsim when mainEnv is set,
// so process-level tests see what a user sees: output, exit status and
// the files left behind.
func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// palsim runs the command with args and returns its stderr and exit
// status.
func palsim(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return errb.String(), code
}

// runPalsim prepares a configuration as main does — the -scenario spec
// at path, or else the configuration flags cf — and runs it through s,
// returning the result and the report.
func runPalsim(t *testing.T, s *cli.Session, cf configFlags, path string, out outputFlags) (*sim.Result, string) {
	t.Helper()
	built, err := prepare(cf, path, out)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res := runSpec(&buf, s, built, "", out)
	return res, buf.String()
}

// seriesNames lists the metrics series a result carries.
func seriesNames(t *testing.T, res *sim.Result) []string {
	t.Helper()
	p := metrics.FromResult(res)
	if p == nil {
		t.Fatal("result carries no metrics payload")
	}
	var names []string
	for _, s := range p.Series {
		names = append(names, s.Name)
	}
	return names
}

// coldThenWarm runs one palsim invocation twice against a fresh store:
// the first simulates and stores, the second must load the result and
// print exactly the same report.
func coldThenWarm(t *testing.T, run func(s *cli.Session, out outputFlags) (*sim.Result, string), out outputFlags) (*sim.Result, string) {
	t.Helper()
	storeDir := filepath.Join(t.TempDir(), "store")
	s := openSession(t, storeDir, "")
	res, cold := run(s, out)
	if st := s.Pool.Cache().Stats(); st.Stored != 1 {
		t.Fatalf("cold run stored %d results, want 1", st.Stored)
	}
	s = openSession(t, storeDir, "")
	_, warm := run(s, out)
	if st := s.Pool.Cache().Stats(); st.StoreHits != 1 {
		t.Fatalf("warm run: %d store hits, want 1", st.StoreHits)
	}
	if warm != cold {
		t.Errorf("warm store hit printed a different report:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	return res, cold
}

// synergyFlags is `palsim -trace synergy -jobs 200`.
var synergyFlags = func() configFlags {
	cf := defaults
	cf.trace, cf.jobs = "synergy", 200
	return cf
}()

// The deciles below are the values palsim printed for the same runs
// from the engine-side series that the collector's gpus_in_use series
// replaced; the pins hold the collector to them.
const (
	synergyDeciles   = "  in-use (deciles): 81 225 202 150 121 109 49 35 33 32\n"
	synergyLifecycle = `  lifecycle (first 4 of 200 jobs):
      job    arrival  first run     finish preempt migrate rejected
        0        820        820      33947       0       0        -
        1       1239       1420      22078       0       0        -
        2       1798       2020      25567       0       0        -
        3       1872       2020     196658       0       0        -
`
)

func TestUtilAndEventsFlagPath(t *testing.T) {
	run := func(s *cli.Session, out outputFlags) (*sim.Result, string) {
		return runPalsim(t, s, synergyFlags, "", out)
	}
	res, report := coldThenWarm(t, run, outputFlags{utilize: true, events: 4})
	if !strings.Contains(report, synergyDeciles) {
		t.Errorf("deciles line missing, want %q in:\n%s", synergyDeciles, report)
	}
	if !strings.Contains(report, synergyLifecycle) {
		t.Errorf("lifecycle rows missing, want\n%s\nin:\n%s", synergyLifecycle, report)
	}
	if got := seriesNames(t, res); !reflect.DeepEqual(got, []string{metrics.SeriesGPUsInUse}) {
		t.Errorf("-util recorded series %v, want only %s", got, metrics.SeriesGPUsInUse)
	}
}

// flagsTestSpec is a small scenario with no metrics block of its own.
const flagsTestSpec = `{
  "name": "palsim-flags-test",
  "seed": 3,
  "cluster": {"nodes": 2, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 24, "jobs_per_hour": 12, "median_work_sec": 1800},
  "policy": {"name": "pal"}
}`

const (
	scenarioDeciles   = "  in-use (deciles): 4 8 8 8 6 3 4 2 1 1\n"
	scenarioLifecycle = `  lifecycle (first 4 of 24 jobs):
      job    arrival  first run     finish preempt migrate rejected
        0        237        237      13575       0       0        -
        1        289        537       1450       0       0        -
        2        469        537       1999       0       0        -
        3        796        837       1837       0       0        -
`
)

// writeSpec writes a spec file into a temp directory.
func writeSpec(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUtilAndEventsScenarioPath(t *testing.T) {
	path := writeSpec(t, flagsTestSpec)
	run := func(s *cli.Session, out outputFlags) (*sim.Result, string) {
		return runPalsim(t, s, configFlags{}, path, out)
	}
	res, report := coldThenWarm(t, run, outputFlags{utilize: true, events: 4})
	if !strings.Contains(report, scenarioDeciles) {
		t.Errorf("deciles line missing, want %q in:\n%s", scenarioDeciles, report)
	}
	if !strings.Contains(report, scenarioLifecycle) {
		t.Errorf("lifecycle rows missing, want\n%s\nin:\n%s", scenarioLifecycle, report)
	}
	if got := seriesNames(t, res); !reflect.DeepEqual(got, []string{metrics.SeriesGPUsInUse}) {
		t.Errorf("-util recorded series %v, want only %s", got, metrics.SeriesGPUsInUse)
	}

	// Without -util or -events no collector is attached and neither
	// block is printed.
	res, bare := runPalsim(t, openSession(t, "", ""), configFlags{}, path, outputFlags{})
	if res.Metrics != nil {
		t.Error("a collector was attached without -util, -events or -metrics")
	}
	if s := bare; strings.Contains(s, "in-use") || strings.Contains(s, "lifecycle") {
		t.Errorf("bare run printed collector output:\n%s", s)
	}
}

// TestUtilKeepsSpecCollector: a spec whose own collector leaves out
// gpus_in_use gains that series under -util and keeps its own.
func TestUtilKeepsSpecCollector(t *testing.T) {
	src := strings.Replace(flagsTestSpec, `"policy"`,
		`"metrics": {"enabled": true, "series": ["queue_depth"]}, "policy"`, 1)
	path := writeSpec(t, src)
	res, report := runPalsim(t, openSession(t, "", ""), configFlags{}, path, outputFlags{utilize: true})
	want := []string{metrics.SeriesGPUsInUse, metrics.SeriesQueueDepth}
	if got := seriesNames(t, res); !reflect.DeepEqual(got, want) {
		t.Errorf("series %v, want %v", got, want)
	}
	if !strings.Contains(report, scenarioDeciles) {
		t.Errorf("deciles line missing:\n%s", report)
	}
}

func TestOutputFlagsCollector(t *testing.T) {
	only := []string{metrics.SeriesGPUsInUse}
	for _, c := range []struct {
		name   string
		out    outputFlags
		on     bool
		series []string
	}{
		{"none", outputFlags{}, false, nil},
		{"util", outputFlags{utilize: true}, true, only},
		{"events", outputFlags{events: 3}, true, only},
		{"metrics", outputFlags{metricsDir: "out"}, true, nil},
		{"metrics+util", outputFlags{metricsDir: "out", utilize: true, events: 3}, true, nil},
	} {
		on, series := c.out.collector()
		if on != c.on || !reflect.DeepEqual(series, c.series) {
			t.Errorf("%s: collector() = %v, %v; want %v, %v", c.name, on, series, c.on, c.series)
		}
	}
}

// TestFlagsLowerToSpec: the configuration flags describe exactly the
// scenario spec a file naming the same cell holds — same canonical
// spec, same cache key — so both run through one path.
func TestFlagsLowerToSpec(t *testing.T) {
	path := writeSpec(t, `{
  "name": "sia-philly-5-pal-fifo",
  "seed": 3659,
  "cluster": {"nodes": 16},
  "workload": {"source": "sia-philly", "workload": 5},
  "policy": {"name": "pal"}
}`)
	fromFile, err := prepare(configFlags{}, path, outputFlags{})
	if err != nil {
		t.Fatal(err)
	}
	cf := defaults
	cf.workload = 5
	fromFlags, err := prepare(cf, "", outputFlags{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fromFlags.Key(), fromFile.Key(); got != want {
		a, _ := fromFlags.Spec.Canonical()
		b, _ := fromFile.Spec.Canonical()
		t.Errorf("flag-built key %s, spec file key %s\nflags:\n%s\nfile:\n%s", got, want, a, b)
	}
	if n := fromFlags.Topo.NumNodes; n != 16 {
		t.Errorf("sia cluster has %d nodes, want the 16-node default", n)
	}
	syn, err := prepare(synergyFlags, "", outputFlags{})
	if err != nil {
		t.Fatal(err)
	}
	if n := syn.Topo.NumNodes; n != 64 {
		t.Errorf("synergy cluster has %d nodes, want the 64-node default", n)
	}
}

// TestConfigErrorsCreateNothing: a configuration error exits 2 before
// the session opens, leaving no journal file and no store directory
// behind.
func TestConfigErrorsCreateNothing(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "bogus"},
		{"-policy", "pmfirst"},
		{"-sched", "bogus"},
		{"-trace", "bogus"},
		{"-lacross", "0.5"},
		{"-workload", "0"},
		{"-trace", "synergy", "-load", "0"},
		{"-seed", "0"},
		{"-scenario", "missing.json"},
		{"-scenario", "missing.json", "-seed", "3"},
	} {
		dir := t.TempDir()
		stderr, code := palsim(t, append(args,
			"-journal", filepath.Join(dir, "journal"), "-store", filepath.Join(dir, "store"))...)
		if code != 2 {
			t.Errorf("palsim %v exited %d, want 2; stderr:\n%s", args, code, stderr)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("palsim %v left %d entries behind (first %s)", args, len(entries), entries[0].Name())
		}
	}
}
