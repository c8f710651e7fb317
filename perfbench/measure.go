package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/store"
)

// minSamples is the fewest timed samples a run takes, however short
// -seconds is: the reported values are medians over the samples.
const minSamples = 3

// skipTables names tables whose content is wall-clock by design
// (fig18 times PAL's placement calls); they are checked for presence
// only.
var skipTables = map[string]bool{"fig18": true}

// run is one untraced benchmark run of one workload: the inputs, the
// expected output units, and the tallies of every check.
type run struct {
	workload string
	seed     uint64
	bin      string
	work     string // work directory, inside buildDir
	spec     *scenario.Spec
	names    []string          // units every output must carry
	want     map[string]string // unit digests outputs must match
	ref      *reference        // pinned outputs and runner counts (nil when recording)

	attempted, failed int
	problems          []string
}

func newRun(workload string, seed uint64, ref *reference) (*run, error) {
	// Samples run inside the work directory; the binary path must not
	// depend on it.
	bin, err := filepath.Abs(palsweepBin())
	if err != nil {
		return nil, err
	}
	r := &run{
		workload: workload,
		seed:     seed,
		bin:      bin,
		work:     filepath.Join(buildDir, "work-"+workload),
		spec:     specFor(workload, seed),
	}
	if p := ref.pinned(workload, seed); p != nil {
		r.want = p.Units
	}
	r.ref = ref
	if err := os.RemoveAll(r.work); err != nil {
		return nil, err
	}
	return r, os.MkdirAll(r.work, 0o755)
}

func (r *run) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// writeInputs writes the workload's spec into the work directory and
// lists the units its outputs must carry.
func (r *run) writeInputs() error {
	if r.spec == nil {
		for _, name := range experiments.Names() {
			if !skipTables[name] {
				r.names = append(r.names, name)
			}
		}
		return nil
	}
	data, err := specJSON(r.spec)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.work, r.specFile()), data, 0o644); err != nil {
		return err
	}
	// Expanding in-process both validates the generated spec and names
	// the cells every sweep of it must report.
	parsed, err := scenario.Parse(data)
	if err != nil {
		return err
	}
	cells, err := parsed.ExpandGrid()
	if err != nil {
		return err
	}
	r.names = r.names[:0]
	for _, c := range cells {
		r.names = append(r.names, c.Name)
	}
	return nil
}

// specFile is the spec's path relative to the work directory; palsweep
// prints it in each cell's note, so it is fixed per spec.
func (r *run) specFile() string { return r.spec.Name + ".json" }

// sweepArgs returns palsweep's arguments for this workload.
func (r *run) sweepArgs(workers int, extra ...string) []string {
	var args []string
	if r.spec == nil {
		args = []string{"-experiments", "all", "-scale", "quick"}
	} else {
		args = []string{"-scenario", r.specFile()}
	}
	return append(append(args, "-workers", fmt.Sprint(workers)), extra...)
}

// check audits one palsweep output: every expected unit must be present
// and, once a reference exists, byte-identical to it; scenario cells
// must be untruncated and of the generated shape. It tallies one
// attempt per unit and one failure per unit that fails, and returns the
// output's unit digests.
func (r *run) check(label string, s sample) map[string]string {
	r.attempted += len(r.names)
	if s.Err != nil {
		r.failed += len(r.names)
		r.problem("%s: %v", label, s.Err)
		return nil
	}
	tables, err := parseTables(s.Stdout)
	var got map[string]string
	if err == nil {
		got, err = units(tables, skipTables)
	}
	if err != nil {
		r.failed += len(r.names)
		r.problem("%s: %v", label, err)
		return nil
	}
	bad := map[string]string{}
	for _, name := range r.names {
		d, ok := got[name]
		switch {
		case !ok:
			bad[name] = "missing"
		case r.want != nil && d != r.want[name]:
			bad[name] = "differs from the reference"
		}
	}
	for _, t := range tables {
		if t.Name != "scenarios" {
			continue
		}
		cells, _ := scenarioCells(t) // parsed without error by units above
		for _, c := range cells {
			switch {
			case c.Truncated != "":
				bad[c.Name] = "truncated: " + c.Truncated
			case c.Jobs != synergyJobs || c.GPUs != synergyNodes*4 || c.Rounds <= 0:
				bad[c.Name] = fmt.Sprintf("shape %d jobs, %d GPUs, %d rounds", c.Jobs, c.GPUs, c.Rounds)
			}
		}
	}
	if r.spec == nil && !hasTable(tables, "fig18") {
		r.problem("%s: fig18 table missing", label)
	}
	if len(got) != len(r.names) {
		r.problem("%s: %d units, want %d", label, len(got), len(r.names))
	}
	for _, name := range sortedKeys(bad) {
		r.failed++
		r.problem("%s: %s: %s", label, name, bad[name])
	}
	return got
}

func hasTable(tables []*table, name string) bool {
	for _, t := range tables {
		if t.Name == name {
			return true
		}
	}
	return false
}

// checkCounts compares the runner summary of a sample taken the way
// the named workload takes them with that workload's pinned counts,
// which must repeat exactly on every seed.
func (r *run) checkCounts(label, workload string, s sample) (sweepCounts, bool) {
	if s.Err != nil {
		return sweepCounts{}, false // check reported it
	}
	got, err := parseSummary(s.Stderr)
	if err != nil {
		r.problem("%s: %v", label, err)
		return got, false
	}
	if r.ref == nil {
		return got, true
	}
	if want, ok := r.ref.Workloads[workload]; ok && got != want.Counts {
		r.problem("%s: runner counts %+v, pinned %+v", label, got, want.Counts)
	}
	return got, true
}

// setUp writes the workload's inputs, prepares its start state and
// makes the reference output its samples must match. Each reference comes
// from a second path through the program: a 2-worker pool for
// cold-engine and repro-quick, per-cell prefixes (-snapshots=false)
// for fork-write and warm-read. warm-read additionally fills the store
// its samples read, through the forked path, and that fill must agree
// with the reference too.
func (r *run) setUp() error {
	if err := r.writeInputs(); err != nil {
		return err
	}
	var refArgs []string
	switch r.workload {
	case coldEngine, reproQuick:
		refArgs = r.sweepArgs(2)
	case forkWrite, warmRead:
		refArgs = r.sweepArgs(2, "-snapshots=false")
	}
	ref := runPalsweep(r.bin, r.work, refArgs...)
	got := r.check("reference sweep", ref)
	if r.want == nil {
		r.want = got
	}
	if r.workload == warmRead {
		fill := runPalsweep(r.bin, r.work, r.sweepArgs(1, "-store", "pristine")...)
		r.check("store fill", fill)
		r.checkCounts("store fill", forkWrite, fill)
		if err := r.verifyStore(filepath.Join(r.work, "pristine")); err != nil {
			return err
		}
	}
	return nil
}

// verifyStore runs store.Verify over a store a sweep wrote.
func (r *run) verifyStore(dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	problems, err := st.Verify()
	if err != nil {
		return err
	}
	for _, p := range problems {
		r.problem("store verify %s: %s", dir, p)
	}
	return nil
}

// resetStore gives a sample the store it starts from: none for
// cold-engine and repro-quick, an empty one for fork-write, a copy of
// the filled store for warm-read (every Get appends recency lines, so
// each sample starts from the same bytes).
func (r *run) resetStore() (extra []string, err error) {
	dir := filepath.Join(r.work, "store")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	switch r.workload {
	case forkWrite:
		return []string{"-store", "store"}, nil
	case warmRead:
		return []string{"-store", "store"}, copyTree(filepath.Join(r.work, "pristine"), dir)
	}
	return nil, nil
}

// measure is an untraced run: set up, take timed samples for the given
// seconds (at least minSamples), check every output and report the
// end-to-end metrics as medians over the samples.
func measure(workload string, seed uint64, seconds float64, ref *reference) (*result, error) {
	res, _, err := measureObserved(workload, seed, seconds, ref)
	return res, err
}

// measureObserved is measure that also returns what the timed samples
// produced, in reference.json's form.
func measureObserved(workload string, seed uint64, seconds float64, ref *reference) (*result, *workloadRef, error) {
	r, err := newRun(workload, seed, ref)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(r.work)

	t0 := time.Now()
	if err := r.setUp(); err != nil {
		return nil, nil, err
	}
	setup := time.Since(t0).Seconds()

	var walls, cpus, rss, storeMB []float64
	var observed *workloadRef
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minSamples && time.Since(start).Seconds()+median(walls) > seconds {
			break
		}
		extra, err := r.resetStore()
		if err != nil {
			return nil, nil, err
		}
		label := fmt.Sprintf("sample %d", i+1)
		s := runPalsweep(r.bin, r.work, r.sweepArgs(1, extra...)...)
		got := r.check(label, s)
		counts, ok := r.checkCounts(label, workload, s)
		walls, cpus, rss = append(walls, s.Wall), append(cpus, s.CPU), append(rss, s.RSSMB)
		if extra != nil {
			n, err := treeBytes(filepath.Join(r.work, "store"))
			if err != nil {
				return nil, nil, err
			}
			storeMB = append(storeMB, float64(n)/1e6)
		}
		if observed == nil && got != nil && ok {
			tables, _ := parseTables(s.Stdout) // parsed without error by check
			observed = &workloadRef{Digest: outputDigest(tables, skipTables), Units: got, Counts: counts}
		}
	}
	if workload == forkWrite {
		if err := r.verifyStore(filepath.Join(r.work, "store")); err != nil {
			return nil, nil, err
		}
	}
	if p := ref.pinned(workload, seed); p != nil && observed != nil && observed.Digest != p.Digest {
		r.problem("output digest %s, pinned %s", observed.Digest, p.Digest)
	}
	if len(storeMB) == 0 {
		storeMB = []float64{0}
	}

	res := &result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   endToEnd(walls, cpus, rss, setup),
	}
	r.report(res, walls, cpus, rss, storeMB)
	return res, observed, nil
}

// endToEnd is an untraced run's result metrics: medians over the timed
// samples, and the set-up time. BENCHMARK.json's end_to_end list names
// exactly these (a test keeps the two in step). store_mb and the error
// rate are reported beside them, not here: both are 0 on some
// workloads, and a result metric must never be 0.
func endToEnd(walls, cpus, rss []float64, setup float64) map[string]metric {
	return map[string]metric{
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"peak_rss_mb": {median(rss), "MB"},
		"setup_s":     {setup, "s"},
	}
}

// report prints the human-readable summary: each end-to-end metric
// with its quartiles, the store size and error rate (reported here
// because they are 0 on some workloads), and every failed check.
func (r *run) report(res *result, walls, cpus, rss, storeMB []float64) {
	fmt.Printf("perfbench: workload %s, seed %d, %d timed samples (palsweep -workers 1)\n", r.workload, r.seed, len(walls))
	fmt.Printf("  %-12s %12s %12s %12s  %s\n", "metric", "median", "q1", "q3", "unit")
	row := func(name string, v []float64, unit string) {
		q1, q3 := quartiles(v)
		fmt.Printf("  %-12s %12.4f %12.4f %12.4f  %s\n", name, median(v), q1, q3, unit)
	}
	row("wall_s", walls, "s")
	row("cpu_s", cpus, "s")
	row("peak_rss_mb", rss, "MB")
	row("store_mb", storeMB, "MB")
	fmt.Printf("  %-12s %.4f\n", "wall samples", walls)
	fmt.Printf("  %-12s %12.4f %12s %12s  s (one set-up)\n", "setup_s", res.Metrics["setup_s"].Value, "", "")
	fmt.Printf("  %-12s %12.4f %12s %12s  failed/attempted = %d/%d units\n", "error_rate",
		float64(r.failed)/float64(max(r.attempted, 1)), "", "", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Printf("  FAILED %s\n", p)
	}
}

// median of v (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method).
// With fewer than two values both are the lone value (or 0).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
