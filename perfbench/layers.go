package main

import (
	"fmt"
	"sort"

	"repro/internal/experiments"
)

// layerMetric is one per-layer metric of the traced run: its unit,
// which direction is better, and the end-to-end metric and workload it
// should move.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// layerMetrics lists the traced run's metrics in report order.
// BENCHMARK.json's per_layer list is this list (a test keeps the two in
// step).
func layerMetrics() []layerMetric {
	lm := []layerMetric{
		{"scenario.parse_ms", "ms", "lower", "wall_s @ every workload (cold-engine spec)"},
		{"scenario.build_ms", "ms", "lower", "wall_s @ every workload (cold-engine spec)"},
	}
	for _, p := range gridPolicies {
		lm = append(lm, layerMetric{"sim.run_ms." + p, "ms", "lower", "wall_s, cpu_s @ cold-engine"})
	}
	lm = append(lm,
		layerMetric{"sim.rounds", "count", "lower", "wall_s @ cold-engine (exact; a semantic change if it moves)"},
		layerMetric{"sim.us_per_round", "us", "lower", "wall_s, cpu_s @ cold-engine"},
		layerMetric{"sim.alloc_mb", "MB", "lower", "cpu_s, peak_rss_mb @ cold-engine"},
	)
	for _, p := range gridPolicies {
		lm = append(lm, layerMetric{"sim.materialized_pct." + p, "%", "lower", "wall_s @ cold-engine"})
	}
	for _, p := range gridPolicies {
		lm = append(lm, layerMetric{"sim.placement_skip_pct." + p, "%", "higher", "wall_s @ cold-engine"})
	}
	lm = append(lm,
		layerMetric{"sim.capture_ms", "ms", "lower", "wall_s @ fork-write"},
		layerMetric{"sim.resume_ms", "ms", "lower", "wall_s @ fork-write"},
		layerMetric{"metrics.overhead_pct", "%", "lower", "wall_s, cpu_s @ fork-write"},
		layerMetric{"export.encode_ms", "ms", "lower", "wall_s @ fork-write"},
		layerMetric{"export.result_kb", "kB", "lower", "store_mb @ fork-write, warm-read"},
		layerMetric{"export.decode_ms", "ms", "lower", "wall_s @ warm-read"},
		layerMetric{"export.snapshot_encode_ms", "ms", "lower", "wall_s @ fork-write"},
		layerMetric{"export.snapshot_decode_ms", "ms", "lower", "wall_s @ fork-write (store-backed forks)"},
		layerMetric{"export.snapshot_kb", "kB", "lower", "store_mb @ fork-write"},
		layerMetric{"store.put_ms", "ms", "lower", "wall_s @ fork-write"},
		layerMetric{"store.put_snapshot_ms", "ms", "lower", "wall_s @ fork-write"},
		layerMetric{"store.get_ms", "ms", "lower", "wall_s @ warm-read"},
		layerMetric{"store.get_self_ms", "ms", "lower", "wall_s @ warm-read"},
		layerMetric{"store.bytes_written", "bytes", "lower", "store_mb @ fork-write"},
		layerMetric{"store.warm_start_ratio", "x", "higher", "wall_s @ warm-read against fork-write"},
		layerMetric{"runner.overhead_ms", "ms", "lower", "wall_s @ warm-read"},
		layerMetric{"runner.executed", "count", "lower", "cpu_s @ every workload (exact)"},
		layerMetric{"runner.snapshot_forks", "count", "higher", "wall_s @ fork-write (exact)"},
		layerMetric{"runner.memory_hits", "count", "higher", "wall_s @ repro-quick (exact)"},
		layerMetric{"runner.store_hits", "count", "higher", "wall_s @ warm-read (exact)"},
		layerMetric{"runner.fork_speedup", "x", "higher", "wall_s @ fork-write"},
	)
	for _, name := range experiments.Names() {
		lm = append(lm, layerMetric{"experiments.run_ms." + name, "ms", "lower", "wall_s @ repro-quick"})
	}
	return append(lm,
		layerMetric{"experiments.sims", "count", "lower", "wall_s @ repro-quick (exact)"},
		layerMetric{"experiments.cache_hits", "count", "higher", "wall_s @ repro-quick (exact)"},
		layerMetric{"trace.overhead_s", "s", "lower", "traced section wall minus untraced wall_s of the workload"},
		layerMetric{"trace.uncovered_pct", "%", "lower", fmt.Sprintf("section wall no layer span covers (tolerance %.0f%%)", 100*coverageTolerance)},
	)
}

// printLayers prints the per-layer table: every metric with its unit and
// the end-to-end metric it should move, then each section's wall time
// and span coverage, then the tracing overhead.
func (x *traced) printLayers(workload string, cov map[string][2]float64, tracedWall, untracedWall float64) {
	fmt.Printf("perfbench: traced run, seed %d\n", x.seed)
	fmt.Printf("  %-40s %14s  %-6s %s\n", "metric", "value", "unit", "moves")
	for _, lm := range layerMetrics() {
		fmt.Printf("  %-40s %14.4f  %-6s %s\n", lm.Name, x.m[lm.Name], lm.Unit, lm.Moves)
	}
	names := make([]string, 0, len(cov))
	for n := range cov {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f  s      layer spans cover %.2f%%\n", n, cov[n][0], 100*cov[n][1])
	}
	fmt.Printf("  tracing overhead on %s: traced %s %.4f s - untraced median wall_s %.4f s = %+.4f s\n",
		workload, sectionFor[workload], tracedWall, untracedWall, tracedWall-untracedWall)
	for _, p := range x.problems {
		fmt.Printf("  FAILED %s\n", p)
	}
}
