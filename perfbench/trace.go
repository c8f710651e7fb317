package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// The traced run repeats the workloads' work in-process and records a
// span around every call into a layer's public functions: scenario
// (LoadFile, ExpandGrid, Build, Key, PrefixKey), sim (Run, Capture,
// Resume through the scenario helpers), export (the codecs), store
// (Put, Get and their snapshot forms) and runner (a sweep over a pool).
// Spans nest: a store Get inside a runner sweep is the sweep's child, so
// each layer's self time excludes the layers it called. The work is
// grouped in sections, one per workload plus three that take the
// comparisons the per-layer metrics need (metrics on vs off, codec
// round trips, forked vs per-cell sweeps); within a section the layer
// spans must cover the section's wall time up to coverageTolerance.

// coverageTolerance bounds the share of a section's wall time that no
// layer span covers (the benchmark's own glue between calls).
const coverageTolerance = 0.02

// span is one timed call.
type span struct {
	name   string
	parent int // index into tracer.spans, -1 for a section
	start  time.Time
	dur    time.Duration
}

// tracer keeps spans in memory. Calls nest on one logical thread: the
// pool's worker goroutine runs a task while the caller waits in the
// sweep, so a stack of open spans gives each span its parent.
type tracer struct {
	mu    sync.Mutex
	spans []span
	open  []int
}

func (t *tracer) begin(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	s.dur = now.Sub(s.start)
	t.open = t.open[:n]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

// total sums the durations of the spans with the given name, in ms.
func (t *tracer) total(name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur
		}
	}
	return ms(d)
}

// totalPrefix sums the durations of the spans whose name starts with
// prefix, in ms.
func (t *tracer) totalPrefix(prefix string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.name, prefix) {
			d += s.dur
		}
	}
	return ms(d)
}

// coverage returns, per section, its wall time and the share of it
// its direct layer spans cover.
func (t *tracer) coverage() map[string][2]float64 {
	covered := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.parent >= 0 && t.spans[s.parent].parent < 0 {
			covered[s.parent] += s.dur
		}
	}
	out := map[string][2]float64{}
	for i, s := range t.spans {
		if s.parent < 0 {
			out[s.name] = [2]float64{s.dur.Seconds(), covered[i].Seconds() / s.dur.Seconds()}
		}
	}
	return out
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// traced holds one traced run's state and tallies.
type traced struct {
	tr       *tracer
	seed     uint64
	work     string
	ref      *reference
	m        map[string]float64
	counts   map[string]float64 // runner counts, which must repeat exactly
	problems []string

	attempted, failed int

	// flip runs the second side of each comparison first.
	flip bool

	// Digests of the encoded fork-write results, in cell order: every
	// other path to the same cells must reproduce them.
	forkDigests []string
	snaps       []*sim.Snapshot
	// warmCell is the pal/las cell of the metrics section, run whole in
	// warmCellMS.
	warmCell   *sim.Result
	warmBuilt  *scenario.Built
	warmCellMS float64
}

func (x *traced) problem(format string, args ...interface{}) {
	x.problems = append(x.problems, fmt.Sprintf(format, args...))
}

// section runs f as one top-level span.
func (x *traced) section(name string, f func() error) error {
	if err := x.tr.do("section."+name, f); err != nil {
		return fmt.Errorf("traced %s: %w", name, err)
	}
	return nil
}

// buildCells writes a spec where palsweep would read it and resolves its
// cells through the scenario layer, as palsweep does.
func (x *traced) buildCells(spec *scenario.Spec) ([]*scenario.Built, error) {
	data, err := specJSON(spec)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(x.work, spec.Name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	var parsed *scenario.Spec
	if err := x.tr.do("scenario.parse", func() (err error) {
		parsed, err = scenario.LoadFile(path)
		return err
	}); err != nil {
		return nil, err
	}
	var cells []*scenario.Built
	err = x.tr.do("scenario.build", func() error {
		expanded, err := parsed.ExpandGrid()
		if err != nil {
			return err
		}
		for _, c := range expanded {
			b, err := c.Build()
			if err != nil {
				return err
			}
			cells = append(cells, b)
		}
		return nil
	})
	return cells, err
}

// tally counts one cell result as attempted, and as failed when it is
// truncated.
func (x *traced) tally(label string, res *sim.Result) {
	x.attempted++
	if res.Truncated {
		x.failed++
		x.problem("%s: truncated (%d jobs unfinished)", label, res.Unfinished)
	}
}

// compare tallies results that must reproduce the fork-write sweep's
// results byte for byte, through the result codec.
func (x *traced) compare(label string, results []*sim.Result) error {
	for i, res := range results {
		x.tally(fmt.Sprintf("%s cell %d", label, i), res)
		d, err := resultDigest(res)
		if err != nil {
			return err
		}
		if i >= len(x.forkDigests) || d != x.forkDigests[i] {
			x.failed++
			x.problem("%s cell %d: result differs from the fork-write sweep", label, i)
		}
	}
	return nil
}

// resultDigest hashes a result's archive encoding without PlaceTimes,
// the one field that is wall-clock by design.
func resultDigest(res *sim.Result) (string, error) {
	r := *res
	r.PlaceTimes = nil
	var buf bytes.Buffer
	if err := export.EncodeResult(&buf, &r); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return fmt.Sprintf("%x", sum[:16]), nil
}

// coldEngine runs the cold-engine cells one sim.Run each, with fresh
// engine counters, timing each placer's calls.
func (x *traced) coldEngine() error {
	type acc struct{ mat, total, skipped, placed int64 }
	per := map[string]*acc{}
	var rounds int64
	var alloc uint64
	err := x.section(coldEngine, func() error {
		cells, err := x.buildCells(coldSpec(x.seed))
		if err != nil {
			return err
		}
		for _, b := range cells {
			placer := b.Spec.Policy.Name
			ctrs := &sim.Counters{}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var res *sim.Result
			err := x.tr.do("sim.run."+placer, func() error {
				cfg, err := b.Config()
				if err != nil {
					return err
				}
				cfg.Counters = ctrs
				res, err = sim.Run(cfg)
				return err
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			x.tally(b.Spec.Name, res)
			alloc += after.TotalAlloc - before.TotalAlloc
			rounds += int64(res.Rounds)
			a := per[placer]
			if a == nil {
				a = &acc{}
				per[placer] = a
			}
			a.mat += ctrs.MaterializedRounds
			a.total += ctrs.TotalRounds()
			a.skipped += ctrs.PlacementsSkipped
			a.placed += ctrs.PlacementsSkipped + ctrs.PlacementsRun
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range gridPolicies {
		a := per[p]
		x.m["sim.run_ms."+p] = x.tr.total("sim.run." + p)
		x.m["sim.materialized_pct."+p] = pct(a.mat, a.total)
		x.m["sim.placement_skip_pct."+p] = pct(a.skipped, a.placed)
	}
	x.m["sim.rounds"] = float64(rounds)
	x.m["sim.us_per_round"] = x.tr.totalPrefix("sim.run.") * 1000 / float64(rounds)
	x.m["sim.alloc_mb"] = float64(alloc) / 1e6
	x.m["scenario.parse_ms"] = x.tr.total("scenario.parse")
	x.m["scenario.build_ms"] = x.tr.total("scenario.build")
	return nil
}

func pct(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// metricsCost runs the cold-engine cells again with the metrics block
// on; the difference to coldEngine's runs is the telemetry sink's cost.
func (x *traced) metricsCost() error {
	return x.section("metrics", func() error {
		spec := coldSpec(x.seed)
		spec.Name = "cold-engine-metrics"
		spec.Metrics.Enabled = true
		cells, err := x.buildCells(spec)
		if err != nil {
			return err
		}
		for _, b := range cells {
			var res *sim.Result
			t0 := time.Now()
			if err := x.tr.do("sim.run_metrics", func() (err error) {
				res, err = b.Run()
				return err
			}); err != nil {
				return err
			}
			x.tally(b.Spec.Name, res)
			if b.Spec.Policy.Name == "pal" && b.Spec.Sched.Name == "las" {
				x.warmCell, x.warmBuilt, x.warmCellMS = res, b, ms(time.Since(t0))
			}
		}
		return nil
	})
}

// timedStore is the store as the runner sees it, with a span around
// each call.
type timedStore struct {
	st *store.Store
	tr *tracer
}

func (s timedStore) Get(key string) (res *sim.Result, ok bool, err error) {
	s.tr.do("store.get", func() error { res, ok, err = s.st.Get(key); return nil })
	return
}

func (s timedStore) Put(key string, res *sim.Result) error {
	return s.tr.do("store.put", func() error { return s.st.Put(key, res) })
}

func (s timedStore) GetSnapshot(key string) (snap *sim.Snapshot, ok bool, err error) {
	s.tr.do("store.get_snapshot", func() error { snap, ok, err = s.st.GetSnapshot(key); return nil })
	return
}

func (s timedStore) PutSnapshot(key string, snap *sim.Snapshot) error {
	return s.tr.do("store.put_snapshot", func() error { return s.st.PutSnapshot(key, snap) })
}

// overheadProbe sums what the pool spends around task runs.
type overheadProbe struct {
	mu    sync.Mutex
	spent time.Duration
}

func (p *overheadProbe) ObserveTask(s runner.TaskSpan) {
	p.mu.Lock()
	p.spent += s.Duration - s.Run
	p.mu.Unlock()
}

// sweep runs cells over a one-worker pool the way palsweep does: cached
// under each cell's key and, with snaps non-nil, forked from shared
// warmup captures. Captured snapshots are handed to onCapture.
func (x *traced) sweep(name string, pool *runner.Pool, cells []*scenario.Built, snaps *runner.SnapshotCache, onCapture func(*sim.Snapshot)) ([]*sim.Result, error) {
	sw := runner.NewSweep(pool)
	keys := make([]string, len(cells))
	x.tr.do("scenario.key", func() error {
		for i, b := range cells {
			keys[i] = b.Key()
		}
		return nil
	})
	for i, b := range cells {
		b := b
		t := runner.Task{Key: keys[i], Label: b.Spec.Name, Run: func() (res *sim.Result, err error) {
			err = x.tr.do("sim.run", func() error { res, err = b.Run(); return err })
			return res, err
		}}
		if snaps != nil {
			t.Run, t.Forked = x.forkRun(b, snaps, onCapture)
		}
		sw.AddTask(t)
	}
	var results []*sim.Result
	err := x.tr.do(name, func() (err error) {
		results, err = sw.Run(context.Background())
		return err
	})
	return results, err
}

// forkRun mirrors palsweep's forked task: one capture per prefix group
// through the snapshot cache, then a resume under the cell's policies.
func (x *traced) forkRun(b *scenario.Built, snaps *runner.SnapshotCache, onCapture func(*sim.Snapshot)) (func() (*sim.Result, error), func() bool) {
	var rode bool
	run := func() (*sim.Result, error) {
		var key string
		x.tr.do("scenario.prefix_key", func() error { key = b.PrefixKey(); return nil })
		snap, fromCache, err := snaps.GetOrCapture(key, func() (*sim.Snapshot, error) {
			var s *sim.Snapshot
			err := x.tr.do("sim.capture", func() (err error) { s, _, err = b.CaptureSnapshot(); return err })
			if err == nil && s == nil {
				s = &sim.Snapshot{Completed: true}
			}
			if err == nil && onCapture != nil {
				onCapture(s)
			}
			return s, err
		})
		if err != nil || snap.Completed {
			return b.RunForked(nil)
		}
		var res *sim.Result
		err = x.tr.do("sim.resume", func() (err error) { res, err = b.ResumeFrom(snap); return err })
		rode = err == nil && fromCache
		return res, err
	}
	return run, func() bool { return rode }
}

// addCounts folds a pool's runner counts into the run's tallies.
func (x *traced) addCounts(pool *runner.Pool) {
	st := pool.Stats()
	x.counts["runner.executed"] += float64(st.Executed)
	x.counts["runner.snapshot_forks"] += float64(st.SnapshotForks)
	if c := pool.Cache(); c != nil {
		cs := c.Stats()
		x.counts["runner.memory_hits"] += float64(cs.Hits)
		x.counts["runner.store_hits"] += float64(cs.StoreHits)
	}
}

// storePool opens the store in dir and returns a one-worker pool whose
// result cache it backs, each store call in a span, as palsweep -store
// wires them.
func (x *traced) storePool(dir string) (*runner.Pool, timedStore, error) {
	var st *store.Store
	if err := x.tr.do("store.open", func() (err error) { st, err = store.Open(dir); return err }); err != nil {
		return nil, timedStore{}, err
	}
	backend := timedStore{st, x.tr}
	cache := runner.NewResultCache(0)
	cache.SetBackend(backend)
	return runner.NewPool(1, cache), backend, nil
}

// forkWrite sweeps the fork-write cells into a fresh store, as the
// fork-write workload does, and returns the results in cell order.
func (x *traced) forkWrite() ([]*sim.Result, error) {
	dir := filepath.Join(x.work, "store")
	var pool *runner.Pool
	var results []*sim.Result
	err := x.section(forkWrite, func() error {
		cells, err := x.buildCells(forkSpec(x.seed))
		if err != nil {
			return err
		}
		var backend timedStore
		if pool, backend, err = x.storePool(dir); err != nil {
			return err
		}
		results, err = x.sweep("runner.sweep", pool, cells, runner.NewSnapshotCache(backend), func(s *sim.Snapshot) {
			x.snaps = append(x.snaps, s)
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	x.addCounts(pool)
	for i, res := range results {
		x.tally(fmt.Sprintf("fork-write cell %d", i), res)
	}
	x.m["sim.capture_ms"] = x.tr.total("sim.capture")
	x.m["sim.resume_ms"] = x.tr.total("sim.resume")
	x.m["store.put_ms"] = x.tr.total("store.put")
	x.m["store.put_snapshot_ms"] = x.tr.total("store.put_snapshot")
	n, err := treeBytes(dir)
	if err != nil {
		return nil, err
	}
	x.m["store.bytes_written"] = float64(n)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	problems, err := st.Verify()
	if err != nil {
		return nil, err
	}
	for _, p := range problems {
		x.problem("store verify: %s", p)
	}
	return results, nil
}

// codec round-trips the fork-write results and snapshots through the
// export codecs, pins the results' encodings as the digests every other
// path must reproduce, and times a cold versus a warm start of one cell.
func (x *traced) codec(results []*sim.Result) error {
	encoded := make([][]byte, len(results))
	var snapBytes int
	err := x.section("codec", func() error {
		for i, res := range results {
			var buf bytes.Buffer
			if err := x.tr.do("export.encode", func() error { return export.EncodeResult(&buf, res) }); err != nil {
				return err
			}
			encoded[i] = buf.Bytes()
			if err := x.tr.do("export.decode", func() error {
				_, err := export.DecodeResult(bytes.NewReader(encoded[i]))
				return err
			}); err != nil {
				return err
			}
		}
		for _, s := range x.snaps {
			var buf bytes.Buffer
			if err := x.tr.do("export.snapshot_encode", func() error { return export.EncodeSnapshot(&buf, s) }); err != nil {
				return err
			}
			snapBytes += buf.Len()
			if err := x.tr.do("export.snapshot_decode", func() error {
				_, err := export.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
				return err
			}); err != nil {
				return err
			}
		}
		// Warm start: one cell simulated whole then put (cold), against
		// the same cell got back from the store (warm).
		var st *store.Store
		if err := x.tr.do("store.open", func() (err error) {
			st, err = store.Open(filepath.Join(x.work, "warm-start"))
			return err
		}); err != nil {
			return err
		}
		var key string
		x.tr.do("scenario.key", func() error { key = x.warmBuilt.Key(); return nil })
		if err := x.tr.do("store.put_cold", func() error { return st.Put(key, x.warmCell) }); err != nil {
			return err
		}
		return x.tr.do("store.get_warm", func() error {
			_, ok, err := st.Get(key)
			if err == nil && !ok {
				err = fmt.Errorf("warm-start cell missing from the store")
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	var resultBytes int
	for i, b := range encoded {
		resultBytes += len(b)
		d, err := resultDigest(results[i])
		if err != nil {
			return err
		}
		x.forkDigests = append(x.forkDigests, d)
	}
	x.m["export.encode_ms"] = x.tr.total("export.encode")
	x.m["export.decode_ms"] = x.tr.total("export.decode")
	x.m["export.result_kb"] = float64(resultBytes) / 1e3 / float64(max(len(results), 1))
	x.m["export.snapshot_encode_ms"] = x.tr.total("export.snapshot_encode")
	x.m["export.snapshot_decode_ms"] = x.tr.total("export.snapshot_decode")
	x.m["export.snapshot_kb"] = float64(snapBytes) / 1e3 / float64(max(len(x.snaps), 1))
	x.m["store.warm_start_ratio"] = (x.warmCellMS + x.tr.total("store.put_cold")) / x.tr.total("store.get_warm")
	return nil
}

// warmRead sweeps the fork-write cells again against a copy of the
// store the fork-write section filled: every cell is a store hit.
func (x *traced) warmRead() error {
	dir := filepath.Join(x.work, "warm")
	if err := copyTree(filepath.Join(x.work, "store"), dir); err != nil {
		return err
	}
	var pool *runner.Pool
	var results []*sim.Result
	probe := &overheadProbe{}
	err := x.section(warmRead, func() error {
		cells, err := x.buildCells(forkSpec(x.seed))
		if err != nil {
			return err
		}
		var backend timedStore
		if pool, backend, err = x.storePool(dir); err != nil {
			return err
		}
		pool.SetProbe(probe)
		results, err = x.sweep("runner.sweep_warm", pool, cells, runner.NewSnapshotCache(backend), nil)
		return err
	})
	if err != nil {
		return err
	}
	x.addCounts(pool)
	x.m["store.get_ms"] = x.tr.total("store.get")
	x.m["store.get_self_ms"] = x.m["store.get_ms"] - x.m["export.decode_ms"]
	x.m["runner.overhead_ms"] = ms(probe.spent)
	return x.compare("warm-read", results)
}

// forkSpeedup sweeps the fork-write cells in memory twice: each cell
// simulating its own prefix (palsweep -snapshots=false), then forked
// from shared captures.
func (x *traced) forkSpeedup() error {
	results := map[bool][]*sim.Result{}
	var pools []*runner.Pool
	err := x.section("fork-speedup", func() error {
		for _, share := range []bool{x.flip, !x.flip} {
			cells, err := x.buildCells(forkSpec(x.seed))
			if err != nil {
				return err
			}
			pool := runner.NewPool(1, runner.NewResultCache(0))
			pools = append(pools, pool)
			if share {
				results[share], err = x.sweep("runner.sweep_forked", pool, cells, runner.NewSnapshotCache(nil), nil)
			} else {
				results[share], err = x.sweep("runner.sweep_percell", pool, cells, nil, nil)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range pools {
		x.addCounts(p)
	}
	x.m["runner.fork_speedup"] = x.tr.total("runner.sweep_percell") / x.tr.total("runner.sweep_forked")
	if err := x.compare("per-cell sweep", results[false]); err != nil {
		return err
	}
	return x.compare("forked sweep", results[true])
}

// experimentsRun runs every registered experiment at quick scale, each
// on a fresh one-worker pool, and checks each table against the pinned
// repro-quick digests.
func (x *traced) experimentsRun() error {
	defer experiments.SetPool(nil)
	tables := map[string]*experiments.Table{}
	var sims, hits int64
	err := x.section("experiments", func() error {
		for _, name := range experiments.Names() {
			pool := runner.NewPool(1, runner.NewResultCache(0))
			experiments.SetPool(pool)
			if err := x.tr.do("experiments.run."+name, func() (err error) {
				tables[name], err = experiments.RunByName(name, experiments.QuickScale())
				return err
			}); err != nil {
				return err
			}
			st := pool.Stats()
			sims += st.Executed
			hits += st.CacheHits
			x.addCounts(pool)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var pinned map[string]string
	if x.ref != nil {
		pinned = x.ref.Workloads[reproQuick].Units
	}
	for _, name := range experiments.Names() {
		x.m["experiments.run_ms."+name] = x.tr.total("experiments.run." + name)
		x.attempted++
		if skipTables[name] || pinned == nil {
			continue
		}
		parsed, err := parseTables(tables[name].String())
		if err != nil || len(parsed) != 1 || digest(parsed[0].Lines) != pinned[name] {
			x.failed++
			x.problem("experiments %s: table differs from the pinned repro-quick output", name)
		}
	}
	x.m["experiments.sims"] = float64(sims)
	x.m["experiments.cache_hits"] = float64(hits)
	return nil
}

// runSections runs every section, in the order their inputs need.
func (x *traced) runSections() error {
	if err := x.ratioSections(); err != nil {
		return err
	}
	return x.experimentsRun()
}

// ratioSections runs every section but the experiments: the ones the
// three ratios (fork speedup, metrics cost, warm start) come from.
func (x *traced) ratioSections() error {
	engine := []func() error{x.coldEngine, x.metricsCost}
	if x.flip {
		engine[0], engine[1] = engine[1], engine[0]
	}
	for _, f := range engine {
		if err := f(); err != nil {
			return err
		}
	}
	x.m["metrics.overhead_pct"] = 100 * (x.tr.total("sim.run_metrics")/x.tr.totalPrefix("sim.run.") - 1)
	results, err := x.forkWrite()
	if err != nil {
		return err
	}
	if err := x.codec(results); err != nil {
		return err
	}
	results = nil // the digests stand in for them from here on
	if err := x.warmRead(); err != nil {
		return err
	}
	return x.forkSpeedup()
}

func newTraced(seed uint64, ref *reference) (*traced, error) {
	x := &traced{
		tr:     &tracer{},
		seed:   seed,
		work:   filepath.Join(buildDir, "work-trace"),
		ref:    ref,
		m:      map[string]float64{},
		counts: map[string]float64{},
	}
	if err := os.RemoveAll(x.work); err != nil {
		return nil, err
	}
	return x, os.MkdirAll(x.work, 0o755)
}

// sectionFor names the traced section that repeats a workload's work.
var sectionFor = map[string]string{
	coldEngine: "section." + coldEngine,
	forkWrite:  "section." + forkWrite,
	warmRead:   "section." + warmRead,
	reproQuick: "section.experiments",
}

// traceRun is the traced run for a workload: an untraced measurement of
// the workload first (its median wall time is the base of the tracing
// overhead), then every traced section. The untraced measurement is as
// short as minSamples allows; the seconds flag does not stretch it.
func traceRun(workload string, seed uint64, ref *reference) (*result, error) {
	untraced, err := measure(workload, seed, 0, ref)
	if err != nil {
		return nil, err
	}
	x, err := newTraced(seed, ref)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(x.work)
	if err := x.runSections(); err != nil {
		return nil, err
	}
	cov := x.tr.coverage()
	worst := 0.0
	for _, c := range cov {
		worst = max(worst, 1-c[1])
	}
	if worst > coverageTolerance {
		x.problem("layer spans leave %.1f%% of a section's wall time uncovered (tolerance %.0f%%)", 100*worst, 100*coverageTolerance)
	}
	untracedWall := untraced.Metrics["wall_s"].Value
	tracedWall := cov[sectionFor[workload]][0]
	x.m["trace.overhead_s"] = tracedWall - untracedWall
	x.m["trace.uncovered_pct"] = 100 * worst
	for name, v := range x.counts {
		x.m[name] = v
		if ref != nil && ref.TraceCounts[name] != v {
			x.problem("%s = %v, pinned %v (runner counts must repeat exactly)", name, v, ref.TraceCounts[name])
		}
	}

	res := &result{
		Correct:   len(x.problems) == 0 && untraced.Correct,
		Attempted: x.attempted + untraced.Attempted,
		Failed:    x.failed + untraced.Failed,
		Metrics:   map[string]metric{},
	}
	for _, lm := range layerMetrics() {
		v, ok := x.m[lm.Name]
		if !ok {
			return nil, fmt.Errorf("traced run produced no %s", lm.Name)
		}
		res.Metrics[lm.Name] = metric{v, lm.Unit}
	}
	x.printLayers(workload, cov, tracedWall, untracedWall)
	return res, nil
}

// traceCounts runs the traced sections with nothing pinned and returns
// the runner counts they produced, for recordReference.
func traceCounts(seed uint64) (map[string]float64, error) {
	x, err := newTraced(seed, nil)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(x.work)
	if err := x.runSections(); err != nil {
		return nil, err
	}
	if len(x.problems) > 0 {
		return nil, fmt.Errorf("traced run failed its checks: %s", strings.Join(x.problems, "; "))
	}
	return x.counts, nil
}
