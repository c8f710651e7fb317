package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Writer appends one process's journal. It implements runner.Probe, so
// wiring is one SetProbe call; ObserveTask may be called from any
// worker goroutine. Append failures are remembered, reported by Close,
// and never propagate into the sweep — observability must not fail
// work, the same degradation contract as the store backend.
type Writer struct {
	mu   sync.Mutex
	f    *os.File
	path string
	err  error // first append failure; later appends are skipped
	// engine accumulates the task spans' engine counters under mu, so
	// Close can fill Summary.Engine without the CLI re-summing events.
	engine *sim.Counters
}

// Create opens a fresh journal file in dir — named
// <role>-<startUnixNano>-<pid>.journal.jsonl, so one directory collects
// the journals of all shard processes of a sweep without coordination —
// and appends the header record. h.Type, h.Version, h.PID and h.StartMS
// are filled in here.
func Create(dir string, h Header) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	now := time.Now()
	h.Type = TypeHeader
	h.Version = Version
	h.PID = os.Getpid()
	h.StartMS = now.UnixMilli()
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d%s", h.Role, now.UnixNano(), h.PID, Ext))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{f: f, path: path}
	if err := w.append(h); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// Path returns the journal file's path.
func (w *Writer) Path() string { return w.path }

// append marshals one record and appends it as a single flocked write,
// so a line is either fully present or absent — concurrent appenders
// (not expected, but a duplicate open is survivable) and crashes can
// tear at most the trailing line, which the reader skips.
func (w *Writer) append(v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	data = append(data, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := flock(w.f); err == nil {
		defer funlock(w.f)
	}
	if _, err := w.f.Write(data); err != nil {
		w.err = fmt.Errorf("journal: append %s: %w", w.path, err)
		return w.err
	}
	return nil
}

// ObserveTask implements runner.Probe: one task record per completed
// task.
func (w *Writer) ObserveTask(sp runner.TaskSpan) {
	ev := TaskEvent{
		Type:     TypeTask,
		Key:      sp.Key,
		Label:    sp.Label,
		Worker:   sp.Worker,
		Outcome:  string(sp.Outcome),
		StartMS:  sp.Start.UnixMilli(),
		DurMS:    float64(sp.Duration) / float64(time.Millisecond),
		RunMS:    float64(sp.Run) / float64(time.Millisecond),
		Counters: sp.Counters,
	}
	if sp.Err != nil {
		ev.Error = sp.Err.Error()
	}
	if sp.Counters != nil {
		w.mu.Lock()
		if w.engine == nil {
			w.engine = &sim.Counters{}
		}
		w.engine.Add(sp.Counters)
		w.mu.Unlock()
	}
	_ = w.append(ev) // degraded, surfaced by Close
}

// Close appends the summary record — stamping EndMS, Type and the Go
// runtime memory statistics — and closes the file. It returns the
// first append failure, if any, so CLIs can warn once.
func (w *Writer) Close(sum Summary) error {
	sum.Type = TypeSummary
	sum.EndMS = time.Now().UnixMilli()
	if sum.Engine == nil {
		w.mu.Lock()
		sum.Engine = w.engine
		w.mu.Unlock()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const mb = 1 << 20
	sum.Mem = MemStats{
		HeapAllocMB:  float64(ms.HeapAlloc) / mb,
		TotalAllocMB: float64(ms.TotalAlloc) / mb,
		SysMB:        float64(ms.Sys) / mb,
		NumGC:        ms.NumGC,
		PauseTotalMS: float64(ms.PauseTotalNs) / float64(time.Millisecond),
		Goroutines:   runtime.NumGoroutine(),
	}
	appendErr := w.append(sum)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Close(); err != nil && appendErr == nil {
		appendErr = fmt.Errorf("journal: close %s: %w", w.path, err)
	}
	return appendErr
}

// Histogram shapes of the store probe. Latencies are clamped into
// [0, 250] ms at 1 ms bins, sizes into [0, 32 MiB] at 64 KiB bins;
// StreamingHist tracks exact extremes, so clamped tails still report
// true min/max and quantiles stay honest at the edges.
const (
	latencyHistHiMS = 250
	latencyHistBins = 250
	sizeHistHi      = 32 << 20
	sizeHistBins    = 512
)

// opAgg accumulates one operation kind under the probe's lock.
type opAgg struct {
	count, errors, misses int64
	latency               *stats.StreamingHist
	bytes                 *stats.StreamingHist
}

func (a *opAgg) observe(d time.Duration, size int64, miss bool, err error) {
	a.count++
	if err != nil {
		a.errors++
	}
	if miss {
		a.misses++
	}
	if a.latency == nil {
		a.latency = stats.NewStreamingHist(0, latencyHistHiMS, latencyHistBins)
	}
	a.latency.Observe(float64(d) / float64(time.Millisecond))
	if size >= 0 {
		if a.bytes == nil {
			a.bytes = stats.NewStreamingHist(0, sizeHistHi, sizeHistBins)
		}
		a.bytes.Observe(float64(size))
	}
}

func (a *opAgg) stats() *OpStats {
	if a.count == 0 {
		return nil
	}
	return &OpStats{
		Count:     a.count,
		Errors:    a.errors,
		Misses:    a.misses,
		LatencyMS: a.latency,
		Bytes:     a.bytes,
	}
}

// objectSizer is the optional interface a backend may implement to
// report encoded object sizes (store.Store does); without it the probe
// records latencies only.
type objectSizer interface {
	ObjectSize(key string) (int64, bool)
}

// BackendProbe wraps a runner.Backend, timing every Get and Put into
// streaming histograms. It is strictly pass-through: results, outcomes
// and errors are untouched, so the cache's tier semantics (including
// the circuit breaker, which detaches the probe and its inner backend
// together) are unchanged.
type BackendProbe struct {
	inner runner.Backend
	sizer objectSizer // nil when the backend cannot report sizes

	mu       sync.Mutex
	get, put opAgg
}

// ProbeBackend wraps b for latency/size sampling.
func ProbeBackend(b runner.Backend) *BackendProbe {
	p := &BackendProbe{inner: b}
	p.sizer, _ = b.(objectSizer)
	return p
}

// Get implements runner.Backend.
func (p *BackendProbe) Get(key string) (*sim.Result, bool, error) {
	t0 := time.Now()
	res, ok, err := p.inner.Get(key)
	d := time.Since(t0)
	size := int64(-1)
	if ok && p.sizer != nil {
		if n, have := p.sizer.ObjectSize(key); have {
			size = n
		}
	}
	p.mu.Lock()
	p.get.observe(d, size, !ok && err == nil, err)
	p.mu.Unlock()
	return res, ok, err
}

// Put implements runner.Backend.
func (p *BackendProbe) Put(key string, res *sim.Result) error {
	t0 := time.Now()
	err := p.inner.Put(key, res)
	d := time.Since(t0)
	size := int64(-1)
	if err == nil && p.sizer != nil {
		if n, have := p.sizer.ObjectSize(key); have {
			size = n
		}
	}
	p.mu.Lock()
	p.put.observe(d, size, false, err)
	p.mu.Unlock()
	return err
}

// Stats snapshots the probe's per-op aggregates (nil when an op never
// ran), ready to embed in the summary record.
func (p *BackendProbe) Stats() (get, put *OpStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.get.stats(), p.put.stats()
}
