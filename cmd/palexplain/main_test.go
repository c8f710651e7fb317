package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/decision"
	"repro/internal/scenario"
	"repro/internal/store"
)

// These tests drive palexplain as a process (the test binary re-executed
// as the command), so they pin what a user sees — stdout, stderr and the
// exit status — independently of how the command is put together.

const mainEnv = "PALEXPLAIN_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// palexplain runs the command with args and returns its stdout, stderr
// and exit status.
func palexplain(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// explainSpec is a small run with its decisions block on.
const explainSpec = `{
  "name": "explain-test",
  "seed": 3,
  "cluster": {"nodes": 2, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 12, "jobs_per_hour": 12, "median_work_sec": 1800},
  "policy": {"name": "pal"},
  "decisions": {"enabled": true}
}`

// archiveRun simulates src and archives the one result two ways: its
// decision trace, key stamped, as <name>.decisions.json in dir (what
// palsim -decisions -metrics writes) and the whole result in the store
// at storeDir (what palsweep -store writes).
func archiveRun(t *testing.T, src, dir, storeDir string) {
	t.Helper()
	spec, err := scenario.Parse([]byte(src))
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
		tr := decision.FromResult(res)
		if tr == nil {
			t.Fatal("run recorded no decision trace")
		}
		cp := *tr
		cp.Key = built.Key()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, spec.Name+".decisions.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
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

// TestTimelineFromFileAndStore: the timeline and a job's table read the
// same from the archived *.decisions.json, from the store and from a
// live -scenario run.
func TestTimelineFromFileAndStore(t *testing.T) {
	tmp := t.TempDir()
	dir, storeDir := filepath.Join(tmp, "out"), filepath.Join(tmp, "store")
	archiveRun(t, explainSpec, dir, storeDir)
	// The live run's spec leaves decisions off: -scenario forces them.
	specPath := filepath.Join(tmp, "spec.json")
	if err := os.WriteFile(specPath, []byte(strings.Replace(explainSpec, `,
  "decisions": {"enabled": true}`, "", 1)), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{nil, {"-job", "0"}, {"-job", "3", "-format", "md"}} {
		fromFile, stderr, code := palexplain(t, append([]string{"-in", dir}, args...)...)
		if code != 0 || stderr != "" {
			t.Fatalf("-in %s %v: exit %d, stderr %q", dir, args, code, stderr)
		}
		fromStore, stderr, code := palexplain(t, append([]string{"-in", storeDir}, args...)...)
		if code != 0 || stderr != "" {
			t.Fatalf("-in %s %v: exit %d, stderr %q", storeDir, args, code, stderr)
		}
		if fromFile != fromStore {
			t.Errorf("%v: the file and the store render differently:\nfile:\n%s\nstore:\n%s", args, fromFile, fromStore)
		}
		live, stderr, code := palexplain(t, append([]string{"-scenario", specPath}, args...)...)
		if code != 0 || stderr != "" || live != fromFile {
			t.Errorf("-scenario %v: exit %d, stderr %q, output differs from the archive:\n%s", args, code, stderr, live)
		}
	}

	timeline, _, _ := palexplain(t, "-in", dir)
	for _, want := range []string{"decision timeline: explain-test (policy pal, sched fifo)", "start 0 (1g/1n"} {
		if !strings.Contains(timeline, want) {
			t.Errorf("timeline lacks %q:\n%s", want, timeline)
		}
	}
	job, _, _ := palexplain(t, "-in", dir, "-job", "0")
	for _, want := range []string{"job 0 timeline: explain-test", "running", "start"} {
		if !strings.Contains(job, want) {
			t.Errorf("-job 0 table lacks %q:\n%s", want, job)
		}
	}
}

// TestUnknownJobRendersEmptyTable: a -job that no record mentions gives
// the table with its header and notes and no rows, not an error.
func TestUnknownJobRendersEmptyTable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	archiveRun(t, explainSpec, dir, "")
	stdout, stderr, code := palexplain(t, "-in", dir, "-job", "999", "-format", "csv")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if lines[0] != "round,t_h,span,state,pos,attained_h,ceiling,gpus,nodes,racks,locality,pm_score,slowdown,events" {
		t.Errorf("header %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "#") {
			t.Errorf("unknown job rendered a row %q:\n%s", l, stdout)
		}
	}
}

// TestInMatchingNothing: an -in token that matches nothing names itself
// and exits 2.
func TestInMatchingNothing(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope")
	stdout, stderr, code := palexplain(t, "-in", missing)
	want := "palexplain: -in: arguments matched no files: " + missing + " (no such file)\n"
	if code != 2 || stdout != "" || stderr != want {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 and stderr %q", code, stdout, stderr, want)
	}
	empty := t.TempDir()
	_, stderr, code = palexplain(t, "-in", empty)
	want = "palexplain: -in: arguments matched no files: " + empty + " (directory with no *.decisions.json)\n"
	if code != 2 || stderr != want {
		t.Errorf("empty directory: exit %d, stderr %q; want exit 2 and %q", code, stderr, want)
	}
}

// TestStoreWithoutTraces: a store whose results carry no decision trace
// says how many it skipped, then fails for want of traces.
func TestStoreWithoutTraces(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	archiveRun(t, strings.Replace(explainSpec, `"decisions": {"enabled": true}`, `"decisions": {"enabled": false}`, 1), "", storeDir)
	stdout, stderr, code := palexplain(t, "-in", storeDir)
	want := "palexplain: store " + storeDir + ": skipped 1 results without decision traces (re-run them with decisions enabled to explain)\n" +
		"palexplain: no decision traces found in \"" + storeDir + "\" (archive them with palsim/palsweep -metrics on a spec with decisions enabled, or palsweep -store)\n"
	if code != 2 || stdout != "" || stderr != want {
		t.Errorf("exit %d, stdout %q, stderr\n%s\nwant exit 2 and\n%s", code, stdout, stderr, want)
	}
}
