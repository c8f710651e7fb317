package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

const mainEnv = "PALSTORE_TEST_MAIN"

// TestMain re-executes the test binary as palstore when mainEnv is set,
// so process-level tests see its output and exit status.
func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// palstore runs the command with args and returns its stdout, stderr
// and exit status.
func palstore(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// Keys of the test store: one result and one snapshot sharing the
// prefix "ab", each unique from its third digit on.
const (
	resultKey   = "ab1" + "0000000000000000000000000000000000000000000000000000000000001"
	snapshotKey = "ab2" + "0000000000000000000000000000000000000000000000000000000000002"
)

// testStore opens a temp store holding one result and one snapshot.
func testStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(resultKey, &sim.Result{Rounds: 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutSnapshot(snapshotKey, &sim.Snapshot{Rounds: 2}); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestResolveKey: a unique prefix of either object kind resolves to its
// full key and kind, searching results and snapshots alike.
func TestResolveKey(t *testing.T) {
	st := testStore(t)
	for _, c := range []struct{ prefix, key, kind string }{
		{"ab1", resultKey, "result"},
		{"ab2", snapshotKey, "snapshot"},
		{resultKey, resultKey, "result"},
	} {
		key, kind, err := resolveKey(st, c.prefix)
		if err != nil || key != c.key || kind != c.kind {
			t.Errorf("resolveKey(%q) = %q, %q, %v; want %q, %q", c.prefix, key, kind, err, c.key, c.kind)
		}
	}
}

// TestResolveKeyErrors: an ambiguous prefix and a prefix matching
// nothing are errors that name the prefix; the ambiguous one also
// names the candidates' kinds, so a short prefix never silently picks
// the wrong object.
func TestResolveKeyErrors(t *testing.T) {
	st := testStore(t)
	for _, c := range []struct {
		prefix string
		want   []string
	}{
		{"ab", []string{`"ab"`, "ambiguous", "2 matches", "result", "snapshot"}},
		{"ff", []string{`"ff"`, "no stored object"}},
	} {
		_, _, err := resolveKey(st, c.prefix)
		if err == nil {
			t.Errorf("resolveKey(%q) succeeded, want an error", c.prefix)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("resolveKey(%q) error %q does not mention %s", c.prefix, err, w)
			}
		}
	}
}

// TestExport: every format prints the store_summary table with a row
// for the stored result (CSV has no title line, so its header row
// stands in for the name); an unknown format fails before printing
// anything.
func TestExport(t *testing.T) {
	dir := testStore(t).Root()
	for format, want := range map[string]string{
		"text": "== store_summary:",
		"md":   "### store_summary",
		"json": `"name": "store_summary"`,
		"csv":  "key,run,policy,sched,jobs,measured,avg_jct_s",
	} {
		stdout, stderr, code := palstore(t, "export", "-store", dir, "-format", format)
		if code != 0 {
			t.Errorf("-format %s exited %d: %s", format, code, stderr)
		}
		if !strings.Contains(stdout, want) || !strings.Contains(stdout, resultKey[:16]) {
			t.Errorf("-format %s output lacks %q or the result row:\n%s", format, want, stdout)
		}
	}
	stdout, stderr, code := palstore(t, "export", "-store", dir, "-format", "yaml")
	if code == 0 || stdout != "" || !strings.Contains(stderr, `unknown format "yaml"`) {
		t.Errorf("-format yaml: exit %d, stdout %q, stderr %q; want a non-zero exit naming the format and no output", code, stdout, stderr)
	}
}
