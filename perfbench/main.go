// Command perfbench is the repository's benchmark. It drives the
// palsweep binary from outside, one fresh process per sample, on four
// workloads generated from a workload seed, checks every output, and
// prints the end-to-end metrics; with -trace 1 it instead runs the
// same work in-process with spans around each layer's public calls and
// prints the per-layer metrics.
//
// Run it from the repository root through the wrapper, which compiles
// this package and palsweep into .bench_build first:
//
//	bash perfbench/run.sh --workload cold-engine --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload fork-write --seed 1 --seconds 20 --trace 1
//	bash perfbench/run.sh --remeasure 5    # fork speedup, metrics cost, warm start
//	bash perfbench/run.sh --record         # re-pin reference.json (default seed)
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// buildDir holds everything the benchmark builds and writes: the Go
// build cache, both binaries and the per-run work directories.
const buildDir = ".bench_build"

func main() {
	var (
		workload  = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed      = flag.Uint64("seed", defaultSeed, "workload seed; every spec derives from it")
		seconds   = flag.Float64("seconds", 20, "how long to take timed samples")
		traced    = flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
		record    = flag.Bool("record", false, "re-pin reference.json from the default seed, then exit")
		remeasure = flag.Int("remeasure", 0, "repeat the fork-speedup, metrics-cost and warm-start measurements n times, then exit")
	)
	flag.Parse()
	if err := preflight(); err != nil {
		fatal(err)
	}
	switch {
	case *record:
		if err := recordReference(); err != nil {
			fatal(err)
		}
		return
	case *remeasure > 0:
		if err := remeasureRatios(*seed, *remeasure); err != nil {
			fatal(err)
		}
		return
	}
	if !slices.Contains(workloads, *workload) {
		fatal(fmt.Errorf("-workload %q, want one of %s", *workload, strings.Join(workloads, ", ")))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace %d, want 0 or 1", *traced))
	}
	ref, err := loadReference()
	if err != nil {
		fatal(err)
	}
	var res *result
	if *traced == 1 {
		res, err = traceRun(*workload, *seed, ref)
	} else {
		res, err = measure(*workload, *seed, *seconds, ref)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// preflight refuses to run anywhere but the root of a repository
// checkout with palsweep compiled by run.sh.
func preflight() error {
	for _, p := range []string{"go.mod", filepath.Join("cmd", "palsweep"), palsweepBin()} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root through perfbench/run.sh: %w", err)
		}
	}
	return nil
}

func palsweepBin() string { return filepath.Join(buildDir, "palsweep") }

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
