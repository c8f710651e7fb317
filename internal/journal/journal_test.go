package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeBackend is an in-memory runner.Backend with an optional size
// reporter and injectable failures, for exercising the probe wrapper.
type fakeBackend struct {
	mu      sync.Mutex
	objects map[string]*sim.Result
	getErr  error
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{objects: make(map[string]*sim.Result)}
}

func (b *fakeBackend) Get(key string) (*sim.Result, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.getErr != nil {
		return nil, false, b.getErr
	}
	res, ok := b.objects[key]
	return res, ok, nil
}

func (b *fakeBackend) Put(key string, res *sim.Result) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.objects[key] = res
	return nil
}

func (b *fakeBackend) ObjectSize(key string) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.objects[key]; ok {
		return 1000, true
	}
	return 0, false
}

// writeSampleJournal writes the journal TestWriterReaderRoundTrip
// reads back into dir: a sharded palsweep header, three task spans
// (executed, store hit, error) and a summary. It returns the closed
// writer with the spans and summary it recorded.
func writeSampleJournal(tb testing.TB, dir string) (*Writer, []runner.TaskSpan, Summary) {
	tb.Helper()
	w, err := Create(dir, Header{Role: "palsweep", Shard: "1/3", Workers: 4})
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	spans := []runner.TaskSpan{
		{Key: "k1", Label: "cell a", Worker: 0, Outcome: runner.OutcomeExecuted,
			Start: start, Duration: 30 * time.Millisecond, Run: 25 * time.Millisecond},
		{Key: "k2", Label: "cell b", Worker: 3, Outcome: runner.OutcomeStoreHit,
			Start: start.Add(time.Millisecond), Duration: 2 * time.Millisecond},
		{Key: "k3", Label: "cell c", Worker: 1, Outcome: runner.OutcomeError,
			Err: errors.New("boom"), Start: start, Duration: time.Millisecond},
	}
	for _, sp := range spans {
		w.ObserveTask(sp)
	}
	sum := Summary{
		Runner: runner.Stats{Submitted: 3, Completed: 3, Executed: 2, CacheHits: 1},
		Cache:  &runner.CacheStats{Misses: 2, StoreHits: 1, Stored: 2},
	}
	if err := w.Close(sum); err != nil {
		tb.Fatal(err)
	}
	return w, spans, sum
}

// TestWriterReaderRoundTrip: a journal written through the Probe
// interface loads back with its header, every task event in append
// order, and the summary.
func TestWriterReaderRoundTrip(t *testing.T) {
	w, spans, sum := writeSampleJournal(t, t.TempDir())

	p, err := Load(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	if p.Header.Role != "palsweep" || p.Header.Shard != "1/3" || p.Header.Workers != 4 {
		t.Errorf("header round trip: %+v", p.Header)
	}
	if p.Header.Version != Version || p.Header.PID != os.Getpid() {
		t.Errorf("header stamping: %+v", p.Header)
	}
	if len(p.Tasks) != len(spans) {
		t.Fatalf("loaded %d tasks, want %d", len(p.Tasks), len(spans))
	}
	for i, sp := range spans {
		got := p.Tasks[i]
		if got.Key != sp.Key || got.Label != sp.Label || got.Worker != sp.Worker ||
			got.Outcome != string(sp.Outcome) {
			t.Errorf("task %d round trip: %+v vs span %+v", i, got, sp)
		}
	}
	if p.Tasks[2].Error != "boom" {
		t.Errorf("task error round trip: %q", p.Tasks[2].Error)
	}
	if p.Summary == nil {
		t.Fatal("summary not loaded")
	}
	if p.Summary.Runner != sum.Runner {
		t.Errorf("summary runner stats: %+v, want %+v", p.Summary.Runner, sum.Runner)
	}
	if p.Summary.Cache == nil || p.Summary.Cache.StoreHits != 1 {
		t.Errorf("summary cache stats: %+v", p.Summary.Cache)
	}
	if p.Summary.EndMS < p.Header.StartMS {
		t.Errorf("summary end %d before header start %d", p.Summary.EndMS, p.Header.StartMS)
	}
	if p.Summary.Mem.SysMB <= 0 {
		t.Errorf("memstats not captured: %+v", p.Summary.Mem)
	}

	counts := p.Counts()
	want := TierCounts{Tasks: 3, Executed: 1, StoreHits: 1, Errors: 1}
	if counts != want {
		t.Errorf("counts = %+v, want %+v", counts, want)
	}
	busy := p.WorkerBusy()
	if busy[0] != 30 || busy[3] != 2 {
		t.Errorf("worker busy = %v", busy)
	}
}

// TestTornTrailingLineSkipped: a crash mid-append leaves a torn last
// line; Load must skip it (the crashed-writer contract) while a torn
// line in the middle stays a loud error.
func TestTornTrailingLineSkipped(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Header{Role: "palsweep", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.ObserveTask(runner.TaskSpan{Key: "k1", Outcome: runner.OutcomeExecuted})
	if err := w.Close(Summary{}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(w.Path(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"task","key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p, err := Load(w.Path())
	if err != nil {
		t.Fatalf("torn trailing line must be tolerated: %v", err)
	}
	if len(p.Tasks) != 1 || p.Summary == nil {
		t.Errorf("loaded %d tasks, summary %v", len(p.Tasks), p.Summary != nil)
	}

	// The same torn line followed by another record is corruption, not a
	// crash artifact.
	f, err = os.OpenFile(w.Path(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n{\"type\":\"task\",\"key\":\"k2\",\"outcome\":\"executed\"}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Load(w.Path()); err == nil {
		t.Error("mid-file corruption must be an error")
	} else if !strings.Contains(err.Error(), "line") {
		t.Errorf("corruption error should name the line: %v", err)
	}
}

// TestLoadDirOrdersAndAggregates: LoadDir returns processes in start
// order, SlowestTasks ranks across them, and MergeOps folds the store
// histograms bin-wise.
func TestLoadDirOrdersAndAggregates(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		w, err := Create(dir, Header{Role: "palsweep", Shard: fmt.Sprintf("%d/3", i), Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			w.ObserveTask(runner.TaskSpan{
				Key:      fmt.Sprintf("key-%d-%d", i, j),
				Label:    fmt.Sprintf("cell %d.%d", i, j),
				Worker:   j % 2,
				Outcome:  runner.OutcomeExecuted,
				Start:    time.Now(),
				Duration: time.Duration(10*(i*4+j)+1) * time.Millisecond,
			})
		}
		if err := w.Close(Summary{Runner: runner.Stats{Submitted: 4, Completed: 4, Executed: 4}}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct StartMS per process
	}
	procs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 3 {
		t.Fatalf("loaded %d processes, want 3", len(procs))
	}
	for i := 1; i < len(procs); i++ {
		if procs[i].Header.StartMS < procs[i-1].Header.StartMS {
			t.Errorf("processes out of start order: %d before %d",
				procs[i].Header.StartMS, procs[i-1].Header.StartMS)
		}
	}
	slow := SlowestTasks(procs, 5)
	if len(slow) != 5 {
		t.Fatalf("SlowestTasks returned %d, want 5", len(slow))
	}
	if slow[0].Task.Label != "cell 2.3" {
		t.Errorf("slowest task %q, want cell 2.3", slow[0].Task.Label)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Task.DurMS > slow[i-1].Task.DurMS {
			t.Errorf("slowest tasks out of order at %d", i)
		}
	}

	a := &OpStats{Count: 2, LatencyMS: stats.NewStreamingHist(0, 250, 250)}
	a.LatencyMS.Observe(1)
	a.LatencyMS.Observe(3)
	b := &OpStats{Count: 3, Misses: 1, LatencyMS: stats.NewStreamingHist(0, 250, 250)}
	b.LatencyMS.Observe(200)
	merged := MergeOps(a, b)
	if merged.Count != 5 || merged.Misses != 1 {
		t.Errorf("merged counts: %+v", merged)
	}
	if merged.LatencyMS.N != 3 || merged.LatencyMS.Min != 1 || merged.LatencyMS.Max != 200 {
		t.Errorf("merged hist: N=%d min=%g max=%g",
			merged.LatencyMS.N, merged.LatencyMS.Min, merged.LatencyMS.Max)
	}
	// Shape mismatch: counts merge, the histogram is dropped loudly-nil.
	c := &OpStats{Count: 1, LatencyMS: stats.NewStreamingHist(0, 100, 10)}
	c.LatencyMS.Observe(5)
	if got := MergeOps(merged, c); got.LatencyMS != nil || got.Count != 6 {
		t.Errorf("mismatched shapes must drop the histogram: %+v", got)
	}
}

// TestBackendProbePassThrough: the probe forwards outcomes untouched
// while recording latency, size, miss and error samples per op.
func TestBackendProbePassThrough(t *testing.T) {
	inner := newFakeBackend()
	p := ProbeBackend(inner)
	res := &sim.Result{Rounds: 7}

	if _, ok, err := p.Get("missing"); ok || err != nil {
		t.Fatalf("probed miss: ok=%v err=%v", ok, err)
	}
	if err := p.Put("k", res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := p.Get("k")
	if !ok || err != nil || got.Rounds != 7 {
		t.Fatalf("probed hit: ok=%v err=%v res=%+v", ok, err, got)
	}
	inner.getErr = errors.New("disk gone")
	if _, _, err := p.Get("k"); err == nil {
		t.Fatal("probe must forward errors")
	}

	get, put := p.Stats()
	if get == nil || put == nil {
		t.Fatal("ops ran but stats are nil")
	}
	if get.Count != 3 || get.Misses != 1 || get.Errors != 1 {
		t.Errorf("get stats: %+v", get)
	}
	if put.Count != 1 || put.Errors != 0 {
		t.Errorf("put stats: %+v", put)
	}
	if get.LatencyMS == nil || get.LatencyMS.N != 3 {
		t.Errorf("get latency samples: %+v", get.LatencyMS)
	}
	if put.Bytes == nil || put.Bytes.N != 1 || put.Bytes.Min != 1000 {
		t.Errorf("put size samples: %+v", put.Bytes)
	}
}

// TestLoadDirEmpty: an empty directory is an explicit error that names
// the directory and the filename pattern it looked for — "palreport
// -journal out/" against the wrong directory must say what was
// searched, not just that nothing was found — and a journal directory
// is created by Create when absent.
func TestLoadDirEmpty(t *testing.T) {
	empty := t.TempDir()
	_, err := LoadDir(empty)
	if err == nil {
		t.Fatal("empty directory must error")
	}
	for _, want := range []string{"no journals found", empty, Ext} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("empty-dir error %q does not name %q", err, want)
		}
	}
	nested := filepath.Join(t.TempDir(), "a", "b")
	w, err := Create(nested, Header{Role: "palsim", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(Summary{}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(nested); err != nil {
		t.Error(err)
	}
}
