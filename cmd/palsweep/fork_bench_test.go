package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/runner"
	"repro/internal/sim"
)

// forkBenchSpec is the snapshot-fork bench grid: 4 placement policies x
// 2 schedulers = 8 cells that all share one pinned warmup prefix (the
// fork block), with the fork horizon deep enough that the shared prefix
// dominates each cell's runtime (this workload runs ~2630 rounds under
// the warmup policies, so a horizon of 2200 shares ~84% of the
// timeline).
const forkBenchSpec = `{
  "name": "fork-bench",
  "cluster": {"nodes": 4, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 192, "jobs_per_hour": 30},
  "fork": {"rounds": 2200, "policy": "packed-sticky", "sched": "fifo"},
  "grid": {
    "policies": ["pal", "pm-first", "packed-sticky", "random-sticky"],
    "scheds": ["fifo", "srtf"]
  }
}`

// BenchmarkSnapshotFork times the bench grid swept per-cell (what
// -snapshots=false runs: every cell simulates its own warmup prefix)
// against the forked path (one capture, 7 forks), on a serial pool so
// the ratio is pure simulation work saved rather than a parallelism
// artifact. CI archives the ReportMetric values as BENCH_snapshot.json;
// the fork-speedup number is the headline the snapshot subsystem must
// keep above 1.5x. Best-of-3 per side to keep scheduler hiccups out of
// a 1x run.
func BenchmarkSnapshotFork(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(path, []byte(forkBenchSpec), 0o644); err != nil {
		b.Fatal(err)
	}
	sweepOnce := func(forked bool) time.Duration {
		// Cells are reloaded per pass: Built values carry per-run engine
		// state and must not be shared between sweeps.
		cells, err := cli.LoadCells([]string{path}, false, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 8 {
			b.Fatalf("expanded %d cells, want 8", len(cells))
		}
		pool := runner.NewPool(1, runner.NewResultCache(0))
		snapCache := runner.NewSnapshotCache(nil)
		sweep := runner.NewSweep(pool)
		t0 := time.Now()
		for _, c := range cells {
			run := c.Built
			tk := runner.Task{Key: run.Key(), Label: run.Spec.Name,
				Run: func() (*sim.Result, error) { return run.Run() }}
			if forked && run.Forked() {
				tk.Run, tk.Forked = forkRun(snapCache, run)
			}
			sweep.AddTask(tk)
		}
		if _, err := sweep.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		d := time.Since(t0)
		if forked {
			if st := pool.Stats(); st.SnapshotForks != int64(len(cells)-1) {
				b.Fatalf("SnapshotForks = %d, want %d (prefix not shared — bench is mismeasuring)",
					st.SnapshotForks, len(cells)-1)
			}
		}
		return d
	}
	bestOf := func(k int, f func() time.Duration) time.Duration {
		best := f()
		for i := 1; i < k; i++ {
			if d := f(); d < best {
				best = d
			}
		}
		return best
	}
	for i := 0; i < b.N; i++ {
		perCell := bestOf(3, func() time.Duration { return sweepOnce(false) })
		forked := bestOf(3, func() time.Duration { return sweepOnce(true) })
		b.ReportMetric(perCell.Seconds()*1000, "percell-ms")
		b.ReportMetric(forked.Seconds()*1000, "forked-ms")
		b.ReportMetric(perCell.Seconds()/forked.Seconds(), "fork-speedup")
	}
}
