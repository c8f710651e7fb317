package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cli"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
)

// forkGridSpec is a policy grid whose cells share one warmup prefix: a
// fork block pinning the warmup policies plus a 4-policy axis, so one
// snapshot serves four cells.
const forkGridSpec = `{
  "name": "fork-grid",
  "cluster": {"nodes": 4, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 48, "jobs_per_hour": 40},
  "metrics": {"enabled": true},
  "fork": {"rounds": 10, "policy": "packed-sticky", "sched": "fifo"},
  "grid": {
    "policies": ["pal", "pm-first", "packed-sticky", "random-sticky"]
  }
}`

// writeForkGrid writes the fork grid spec into dir and returns its path.
func writeForkGrid(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "fork.json")
	if err := os.WriteFile(path, []byte(forkGridSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCellsForked mirrors runCells with the -snapshots wiring: fork-
// bearing cells route through a snapshot cache exactly as
// runScenarioSweep submits them. snapBackend may be nil (memory-only).
func runCellsForked(t *testing.T, cells []cli.Cell, snapBackend runner.SnapshotBackend) ([]*sim.Result, runner.Stats, runner.SnapshotCacheStats) {
	t.Helper()
	pool := runner.NewPool(4, runner.NewResultCache(0))
	snapCache := runner.NewSnapshotCache(snapBackend)
	return sweepForked(t, pool, snapCache, cells), pool.Stats(), snapCache.Stats()
}

// sweepForked submits cells to pool as runScenarioSweep does, routing
// fork-bearing cells through snapCache, and returns the results.
func sweepForked(t *testing.T, pool *runner.Pool, snapCache *runner.SnapshotCache, cells []cli.Cell) []*sim.Result {
	t.Helper()
	sweep := runner.NewSweep(pool)
	for _, c := range cells {
		run := c.Built
		tk := runner.Task{Key: run.Key(), Label: run.Spec.Name,
			Run: func() (*sim.Result, error) { return run.Run() }}
		if run.Forked() {
			tk.Run, tk.Forked = forkRun(snapCache, run)
		}
		sweep.AddTask(tk)
	}
	results, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestForkedSweepByteIdentical is the sweep-level acceptance suite for
// snapshot forking: a grid swept through the shared snapshot cache must
// produce byte-identical results to every cell simulating its own
// prefix (-snapshots=false), with exactly one cell doing the capture
// and the rest counted as snapshot forks.
func TestForkedSweepByteIdentical(t *testing.T) {
	dir := t.TempDir()
	specPath := writeForkGrid(t, dir)
	cells, err := cli.LoadCells([]string{specPath}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}

	// Reference: the per-cell path (what -snapshots=false runs).
	refResults, refStats := runCells(t, cells, nil)
	if refStats.SnapshotForks != 0 {
		t.Fatalf("per-cell path reported %d snapshot forks, want 0", refStats.SnapshotForks)
	}
	ref := make([][]byte, len(cells))
	for i, r := range refResults {
		ref[i] = encodeResult(t, r)
	}

	// Shared-snapshot path, memory-only cache: must reload the cells so
	// the reference pass's engines don't alias.
	cells2, err := cli.LoadCells([]string{specPath}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, snapStats := runCellsForked(t, cells2, nil)
	for i, r := range results {
		if !bytes.Equal(encodeResult(t, r), ref[i]) {
			t.Errorf("cell %d (%s): forked result diverged from the per-cell run",
				i, cells[i].Built.Spec.Name)
		}
	}
	if stats.Executed != int64(len(cells)) {
		t.Errorf("Executed = %d, want %d (every cell's Run closure ran)", stats.Executed, len(cells))
	}
	if want := int64(len(cells) - 1); stats.SnapshotForks != want {
		t.Errorf("SnapshotForks = %d, want %d (one capture, rest forked)", stats.SnapshotForks, want)
	}
	if snapStats.Captured != 1 || snapStats.Hits != int64(len(cells)-1) {
		t.Errorf("snapshot cache stats = %+v, want Captured 1, Hits %d", snapStats, len(cells)-1)
	}
}

// TestForkedSweepStoreWarmStart: with a store backend, the captured
// snapshot persists; a second sweep in a fresh process state forks
// every cell straight from disk without simulating any prefix.
func TestForkedSweepStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	specPath := writeForkGrid(t, dir)
	st, err := store.Open(filepath.Join(dir, ".palstore"))
	if err != nil {
		t.Fatal(err)
	}

	cells, err := cli.LoadCells([]string{specPath}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	results, _, snapStats := runCellsForked(t, cells, st)
	if snapStats.Captured != 1 || snapStats.Stored != 1 {
		t.Fatalf("first sweep snapshot stats = %+v, want Captured 1, Stored 1", snapStats)
	}
	ref := make([][]byte, len(cells))
	for i, r := range results {
		ref[i] = encodeResult(t, r)
	}
	keys, err := st.SnapshotKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("store holds %d snapshots, want 1", len(keys))
	}

	// Second sweep: fresh cells, fresh caches, same store. No result
	// cache backend here, so every cell re-runs — but the snapshot comes
	// from disk: zero captures, every cell a fork.
	cells2, err := cli.LoadCells([]string{specPath}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	results2, stats2, snapStats2 := runCellsForked(t, cells2, st)
	if snapStats2.Captured != 0 || snapStats2.StoreHits != 1 {
		t.Errorf("warm sweep snapshot stats = %+v, want Captured 0, StoreHits 1", snapStats2)
	}
	if stats2.SnapshotForks != int64(len(cells2)) {
		t.Errorf("warm sweep SnapshotForks = %d, want %d (every cell forked from disk)",
			stats2.SnapshotForks, len(cells2))
	}
	for i, r := range results2 {
		if !bytes.Equal(encodeResult(t, r), ref[i]) {
			t.Errorf("cell %d: store-forked result diverged", i)
		}
	}
}

// failingSnapBackend is a SnapshotBackend whose every call fails.
type failingSnapBackend struct{}

func (failingSnapBackend) GetSnapshot(string) (*sim.Snapshot, bool, error) {
	return nil, false, errors.New("snapshot tree unreadable")
}

func (failingSnapBackend) PutSnapshot(string, *sim.Snapshot) error {
	return errors.New("snapshot tree unwritable")
}

// TestSnapshotStoreFailureWarns: snapshot-backend failures degrade the
// fork path to capturing without failing a cell, and palsweep's
// end-of-sweep WARNING reports them like result-store failures.
func TestSnapshotStoreFailureWarns(t *testing.T) {
	specPath := writeForkGrid(t, t.TempDir())
	cells, err := cli.LoadCells([]string{specPath}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	refResults, _ := runCells(t, cells, nil)

	cells2, err := cli.LoadCells([]string{specPath}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.NewPool(4, runner.NewResultCache(0))
	snapCache := runner.NewSnapshotCache(failingSnapBackend{})
	results := sweepForked(t, pool, snapCache, cells2)
	for i, r := range results {
		if !bytes.Equal(encodeResult(t, r), encodeResult(t, refResults[i])) {
			t.Errorf("cell %d: result diverged under a failing snapshot store", i)
		}
	}
	var stderr bytes.Buffer
	(&cli.Session{Cmd: "palsweep", Pool: pool, Snaps: snapCache}).Finish(&stderr, true)
	if want := "palsweep: WARNING: persistent store degraded: 2 backend errors\n"; stderr.String() != want {
		t.Errorf("warning = %q, want %q", stderr.String(), want)
	}
}
