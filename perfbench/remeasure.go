package main

import (
	"fmt"
	"os"
	"strings"
)

// remeasureRatios repeats the three ratios earlier notes quoted from a
// single sample — the snapshot-fork speedup, the metrics sink's cost
// and the store's warm-start ratio — n times on one seed, alternating
// which side of each comparison runs first, and prints each one's
// median and quartiles.
func remeasureRatios(seed uint64, n int) error {
	names := []string{"runner.fork_speedup", "metrics.overhead_pct", "store.warm_start_ratio"}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		x, err := newTraced(seed, nil)
		if err != nil {
			return err
		}
		x.flip = i%2 == 1
		if err := x.ratioSections(); err != nil {
			return err
		}
		if len(x.problems) > 0 {
			return fmt.Errorf("repetition %d failed its checks: %s", i+1, strings.Join(x.problems, "; "))
		}
		for _, name := range names {
			values[name] = append(values[name], x.m[name])
		}
		if err := os.RemoveAll(x.work); err != nil {
			return err
		}
	}
	fmt.Printf("perfbench: %d repetitions, seed %d, one worker\n", n, seed)
	fmt.Printf("  %-24s %10s %10s %10s  values\n", "ratio", "median", "q1", "q3")
	for _, name := range names {
		v := values[name]
		q1, q3 := quartiles(v)
		fmt.Printf("  %-24s %10.3f %10.3f %10.3f  %.3f\n", name, median(v), q1, q3, v)
	}
	return nil
}
