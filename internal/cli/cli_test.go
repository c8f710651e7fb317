package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// testSpec is a small run with both recording blocks on.
const testSpec = `{
  "name": "cli-test",
  "seed": 4,
  "cluster": {"nodes": 2, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 12, "jobs_per_hour": 12, "median_work_sec": 1800},
  "policy": {"name": "pal"},
  "metrics": {"enabled": true, "series": ["gpus_in_use", "queue_depth"]},
  "decisions": {"enabled": true}
}`

func runTestSpec(t *testing.T) (*sim.Result, string) {
	t.Helper()
	spec, err := scenario.Parse([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, b.Key()
}

// TestArchiveRoundTrip: what WriteArchive writes, ReadArchive reads back
// from the directory and from a store holding the same result — the key
// stamped on copies, never on the result's shared payload and trace.
func TestArchiveRoundTrip(t *testing.T) {
	res, key := runTestSpec(t)
	dir := filepath.Join(t.TempDir(), "out")
	payloadPath, tracePath, err := WriteArchive(dir, "run", key, res)
	if err != nil {
		t.Fatal(err)
	}
	if payloadPath != filepath.Join(dir, "run"+MetricsExt) || tracePath != filepath.Join(dir, "run"+DecisionsExt) {
		t.Errorf("wrote %s and %s", payloadPath, tracePath)
	}
	for _, series := range []string{"gpus_in_use", "queue_depth"} {
		if _, err := os.Stat(filepath.Join(dir, "run."+series+".csv")); err != nil {
			t.Error(err)
		}
	}
	if metrics.FromResult(res).Key != "" || decision.FromResult(res).Key != "" {
		t.Error("WriteArchive stamped the key on the result's own payload or trace")
	}

	fromDir, err := ReadArchive("test", dir, true, true)
	if err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(t.TempDir(), "store")
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, res); err != nil {
		t.Fatal(err)
	}
	fromStore, err := ReadArchive("test", storeDir, true, true)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*Archive{"directory": fromDir, "store": fromStore} {
		if len(a.Payloads) != 1 || len(a.Traces) != 1 {
			t.Fatalf("%s: %d payloads and %d traces, want one of each", name, len(a.Payloads), len(a.Traces))
		}
		if p := a.Payloads[0]; p.Key != key || p.Name != "cli-test" {
			t.Errorf("%s: payload key %q name %q", name, p.Key, p.Name)
		}
		if tr := a.Traces[0]; tr.Key != key || tr.Name != "cli-test" {
			t.Errorf("%s: trace key %q name %q", name, tr.Key, tr.Name)
		}
	}
	if !reflect.DeepEqual(fromDir.Payloads[0].Aggregates, fromStore.Payloads[0].Aggregates) {
		t.Error("the directory and the store give different aggregates")
	}
	if !fromStore.Keys[key] || len(fromDir.Keys) != 0 {
		t.Errorf("keys: store %v, directory %v", fromStore.Keys, fromDir.Keys)
	}
}

// TestLoadCellsForcesBeforeExpansion: a forced recording block changes
// every cell's key exactly as a spec file that enabled it would.
func TestLoadCellsForcesBeforeExpansion(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const grid = `{"name": "g", "cluster": {"nodes": 2, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 8, "jobs_per_hour": 12}%s,
  "grid": {"seeds": [1, 2]}}`
	plain := write("plain.json", fmt.Sprintf(grid, ""))
	enabled := write("enabled.json", fmt.Sprintf(grid, `, "metrics": {"enabled": true}`))

	asWritten, err := LoadCells([]string{plain}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	forced, err := LoadCells([]string{plain}, true, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadCells([]string{enabled}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(forced) != 2 || len(asWritten) != 2 || len(want) != 2 {
		t.Fatalf("cells: %d forced, %d as written, %d enabled; want 2 each", len(forced), len(asWritten), len(want))
	}
	for i := range forced {
		if forced[i].Path != plain {
			t.Errorf("cell %d path %q", i, forced[i].Path)
		}
		if k := forced[i].Built.Key(); k != want[i].Built.Key() || k == asWritten[i].Built.Key() {
			t.Errorf("cell %d: forced key %s, enabled-in-file key %s, as-written key %s",
				i, k, want[i].Built.Key(), asWritten[i].Built.Key())
		}
	}
}

// TestReadOlderCodecStoreCreatesNothing: reading a root that holds only
// an older codec's tree prints the older-codec note on every read and
// leaves the root exactly as it was — reading opens no store, so it
// creates no current-codec tree.
func TestReadOlderCodecStoreCreatesNothing(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(filepath.Join(root, "v1", "objects"), 0o755); err != nil {
		t.Fatal(err)
	}
	before := listTree(t, root)
	for i := 1; i <= 2; i++ {
		var a *Archive
		stderr := captureStderr(t, func() {
			var err error
			if a, err = ReadArchive("palreport", root, true, false); err != nil {
				t.Fatal(err)
			}
		})
		if !strings.Contains(stderr, "holds no objects for the current codec") {
			t.Errorf("read %d: stderr %q lacks the older-codec note", i, stderr)
		}
		if len(a.Payloads) != 0 || len(a.Keys) != 0 {
			t.Errorf("read %d: %d payloads, %d keys from an older-codec root", i, len(a.Payloads), len(a.Keys))
		}
		if after := listTree(t, root); !reflect.DeepEqual(after, before) {
			t.Errorf("read %d changed the root: %v, was %v", i, after, before)
		}
	}
}

// listTree returns every path under root, relative to it.
func listTree(t *testing.T, root string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(root, func(path string, _ os.DirEntry, err error) error {
		rel, _ := filepath.Rel(root, path)
		paths = append(paths, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
