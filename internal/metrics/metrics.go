// Package metrics is the telemetry subsystem: a deterministic,
// fast-forward-safe collector the engine drives through the narrow
// sim.MetricsSink hook. Where sim.Observer demands one callback per
// running job per round — and therefore disables the engine's dead-time
// skipping — the collector's contract is span-based: the engine hands it
// the length of each provably-frozen stretch of rounds together with the
// frozen per-job state, and the collector integrates analytically,
// producing output byte-identical to naive round-by-round sampling
// (TestMetricsFastForwardByteIdentical in internal/sim pins this).
//
// One run yields one Payload: fixed-interval ring-buffered time series
// (GPU utilization, queue depth, running/waiting counts, per-class
// goodput), per-job lifecycle records (submit/start/finish, JCT,
// queueing delay, preemptions, migrations), and fixed-bin streaming
// histograms of the JCT and wait distributions. Payloads serialize to
// JSON; cmd/palreport aggregates them across a sweep into
// policy-vs-policy comparison and CDF tables without re-simulating.
//
// Determinism: a Collector is a pure observer. It holds no RNG, never
// mutates jobs, and derives every value from the observation itself, so
// attaching one cannot perturb any simulation draw — Result with and
// without metrics is byte-identical (the scenario layer's metrics
// determinism test enforces this).
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vprof"
)

// Canonical series names. Per-class goodput series follow the pattern
// "goodput_a", "goodput_b", ... (vprof class letters, lowercased).
const (
	SeriesGPUsInUse   = "gpus_in_use"  // GPUs allocated during the round
	SeriesUtilization = "utilization"  // gpus_in_use / cluster size
	SeriesQueueDepth  = "queue_depth"  // active jobs without GPUs
	SeriesRunningJobs = "running_jobs" // jobs holding GPUs
	SeriesGoodput     = "goodput"      // Σ demand/slowdown: ideal GPU-equivalents of progress per second
	goodputClassStem  = "goodput_"     // + lowercased class letter
)

// Defaults applied by NewCollector (and mirrored by the scenario layer's
// normalization).
const (
	DefaultMaxSamples = 16384
	DefaultHistBins   = 64
)

// GoodputClassSeries returns the per-class goodput series name for a
// variability class ("goodput_a" for class A).
func GoodputClassSeries(c vprof.Class) string {
	return goodputClassStem + strings.ToLower(c.String())
}

// AllSeries lists every series name the collector can record, in
// canonical order, for the standard vprof.NumClasses classes.
func AllSeries() []string {
	names := []string{SeriesGPUsInUse, SeriesUtilization, SeriesQueueDepth, SeriesRunningJobs, SeriesGoodput}
	for c := 0; c < vprof.NumClasses; c++ {
		names = append(names, GoodputClassSeries(vprof.Class(c)))
	}
	return names
}

// ValidSeries reports whether name is a recordable series.
func ValidSeries(name string) bool {
	for _, n := range AllSeries() {
		if n == name {
			return true
		}
	}
	return false
}

// Config shapes one Collector.
type Config struct {
	// IntervalRounds samples every k-th simulated round (default 1:
	// every round). The grid is the round index, not wall time, so
	// sampling is exact across fast-forwarded spans.
	IntervalRounds int
	// MaxSamples bounds each series' ring buffer (default
	// DefaultMaxSamples); the ring keeps the most recent samples.
	MaxSamples int
	// Series selects the recorded series by name (AllSeries lists the
	// vocabulary); nil enables all of them.
	Series []string
	// ClusterGPUs sizes the utilization series' denominator. Zero
	// disables the utilization series (the raw gpus_in_use series is
	// unaffected).
	ClusterGPUs int
	// HistBins is the bin count of the JCT and wait histograms (default
	// DefaultHistBins).
	HistBins int

	// Label, Policy and Sched are carried verbatim into the Payload so
	// downstream aggregation (palreport) can identify the run without
	// re-deriving its configuration.
	Label  string
	Policy string
	Sched  string
}

// Collector implements sim.MetricsSink. Create one per run with
// NewCollector, attach it via sim.Config.Metrics, and read the Payload
// back after the run (Result.Metrics / FromResult). A Collector is not
// safe for concurrent use and must not be shared between runs.
type Collector struct {
	cfg      Config
	round    int64 // simulated rounds observed so far
	timeBase float64
	roundSec float64
	haveBase bool

	series []*Series // enabled series, AllSeries order
	finals *Payload  // built once by FinishRun

	// scratch for per-class goodput accumulation
	classGoodput []float64
}

// NewCollector returns a collector with defaults applied: interval 1,
// DefaultMaxSamples ring capacity, DefaultHistBins histogram bins, all
// series enabled. Unknown series names are an error (the scenario layer
// validates them earlier; programmatic callers get the same loudness).
func NewCollector(cfg Config) (*Collector, error) {
	if cfg.IntervalRounds <= 0 {
		cfg.IntervalRounds = 1
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = DefaultMaxSamples
	}
	if cfg.HistBins <= 0 {
		cfg.HistBins = DefaultHistBins
	}
	enabled := cfg.Series
	if enabled == nil {
		enabled = AllSeries()
	}
	seen := make(map[string]bool, len(enabled))
	c := &Collector{cfg: cfg, classGoodput: make([]float64, vprof.NumClasses)}
	for _, name := range AllSeries() {
		for _, want := range enabled {
			if want == name && !seen[name] {
				seen[name] = true
				c.series = append(c.series, newSeries(name, cfg.MaxSamples))
			}
		}
	}
	for _, want := range enabled {
		if !seen[want] {
			return nil, fmt.Errorf("metrics: unknown series %q (have %v)", want, AllSeries())
		}
	}
	return c, nil
}

// MustCollector is NewCollector for configurations known valid at
// compile time (no caller-supplied series names).
func MustCollector(cfg Config) *Collector {
	c, err := NewCollector(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// value computes one series' constant value for a span. Per-class
// goodput has been accumulated into c.classGoodput by ObserveRounds.
func (c *Collector) value(name string, o sim.RoundObservation, inUse int, goodput float64) (float64, bool) {
	switch name {
	case SeriesGPUsInUse:
		return float64(inUse), true
	case SeriesUtilization:
		if c.cfg.ClusterGPUs <= 0 {
			return 0, false
		}
		return float64(inUse) / float64(c.cfg.ClusterGPUs), true
	case SeriesQueueDepth:
		return float64(o.Waiting), true
	case SeriesRunningJobs:
		return float64(len(o.Running)), true
	case SeriesGoodput:
		return goodput, true
	}
	if cls, ok := strings.CutPrefix(name, goodputClassStem); ok && len(cls) == 1 {
		idx := int(cls[0] - 'a')
		if idx >= 0 && idx < len(c.classGoodput) {
			return c.classGoodput[idx], true
		}
	}
	return 0, false
}

// ObserveRounds implements sim.MetricsSink. Every per-round quantity is
// constant across the observed span (the engine's guarantee), so the
// span contributes its samples analytically: the covered sample indices
// are enumerated directly on the round grid and each receives the one
// precomputed value — no per-round state evolution, and therefore no
// arithmetic that could diverge from the naive path.
func (c *Collector) ObserveRounds(o sim.RoundObservation) {
	if !c.haveBase {
		c.timeBase = o.Start
		c.roundSec = o.RoundSec
		c.haveBase = true
	}
	inUse := 0
	goodput := 0.0
	for i := range c.classGoodput {
		c.classGoodput[i] = 0
	}
	// Running is sorted by job ID (canonical order), so these float
	// accumulations are order-stable across the naive and fast paths.
	for i, j := range o.Running {
		inUse += j.Spec.Demand
		g := float64(j.Spec.Demand) / o.Slowdowns[i]
		goodput += g
		if cls := int(j.Spec.Class); cls >= 0 && cls < len(c.classGoodput) {
			c.classGoodput[cls] += g
		}
	}

	k := int64(c.cfg.IntervalRounds)
	end := c.round + int64(o.Rounds)
	first := ((c.round + k - 1) / k) * k
	for _, s := range c.series {
		v, ok := c.value(s.name, o, inUse, goodput)
		if !ok {
			continue
		}
		for idx := first; idx < end; idx += k {
			s.append(idx, v)
		}
	}
	c.round = end
}

// FinishRun implements sim.MetricsSink: it snapshots the series and
// derives lifecycle records, aggregates and distribution histograms from
// the completed result. Called exactly once by the engine. The payload
// holds copies of the samples, so the rings are released here: a cached
// result then retains only the payload. Nothing reads the rings after
// the run (MarshalSnapshotState refuses a finished collector).
func (c *Collector) FinishRun(res *sim.Result) {
	if c.finals != nil {
		panic("metrics: FinishRun called twice on one collector")
	}
	c.finals = c.buildPayload(res)
	c.series = nil
}

// Payload returns the collected telemetry. It is nil until the run
// finishes. The returned value is shared with the collector (and, via
// the runner cache, possibly with other consumers): treat it as
// read-only and copy the struct to relabel it.
func (c *Collector) Payload() *Payload { return c.finals }

// Rounds returns the number of simulated rounds observed so far.
func (c *Collector) Rounds() int64 { return c.round }

// FromResult returns the payload collected during res's run, or nil when
// the run had no metrics attached (or a custom sink that does not expose
// a payload). Both live runs (*Collector) and results decoded from the
// artifact store (*ArchivedSink) satisfy the interface, so downstream
// consumers need not know whether a result was simulated or loaded.
func FromResult(res *sim.Result) *Payload {
	if res == nil || res.Metrics == nil {
		return nil
	}
	if p, ok := res.Metrics.(interface{ Payload() *Payload }); ok {
		return p.Payload()
	}
	return nil
}

// buildPayload assembles the final payload from the collector's series
// and the result's per-job state.
func (c *Collector) buildPayload(res *sim.Result) *Payload {
	p := &Payload{
		Name:           c.cfg.Label,
		Policy:         c.cfg.Policy,
		Sched:          c.cfg.Sched,
		ClusterGPUs:    c.cfg.ClusterGPUs,
		IntervalRounds: c.cfg.IntervalRounds,
		RoundSec:       c.roundSec,
		TimeBase:       c.timeBase,
		Truncated:      res.Truncated,
		Unfinished:     res.Unfinished,
	}
	for _, s := range c.series {
		if s.name == SeriesUtilization && c.cfg.ClusterGPUs <= 0 {
			continue // disabled for lack of a denominator
		}
		rounds, values := s.Samples()
		p.Series = append(p.Series, SeriesData{
			Name:    s.name,
			Rounds:  rounds,
			Values:  values,
			Dropped: s.Dropped(),
		})
	}

	measured := make(map[int]bool, len(res.Measured))
	for _, j := range res.Measured {
		measured[j.Spec.ID] = true
	}
	for _, j := range res.Jobs {
		rec := JobRecord{
			ID:          j.Spec.ID,
			Model:       j.Spec.Model,
			Class:       j.Spec.Class.String(),
			Arrival:     j.Spec.Arrival,
			Demand:      j.Spec.Demand,
			Work:        j.Spec.Work,
			Started:     j.Started,
			Done:        j.Done,
			Preemptions: j.Preemptions,
			Migrations:  j.Migrations,
			Measured:    measured[j.Spec.ID],
		}
		if j.Started {
			rec.FirstRun = j.FirstRun
		}
		switch {
		case j.Done && !j.Started:
			// Admission-rejected: the engine marks these Done with a
			// zero-length schedule. Flag them instead of archiving a
			// fictitious JCT-0 completion.
			rec.Rejected = true
		case j.Done:
			rec.Finish = j.Finish
			rec.JCT = j.JCT()
			rec.Wait = j.Wait()
		}
		p.Jobs = append(p.Jobs, rec)
	}

	jcts := res.JCTs()
	waits := res.Waits()
	p.JCTHist = histOf(jcts, c.cfg.HistBins)
	p.WaitHist = histOf(waits, c.cfg.HistBins)
	p.Aggregates = Aggregates{
		Jobs:                  len(res.Jobs),
		Measured:              len(res.Measured),
		AvgJCT:                stats.Mean(jcts),
		P50JCT:                stats.Percentile(jcts, 50),
		P90JCT:                stats.Percentile(jcts, 90),
		P99JCT:                stats.Percentile(jcts, 99),
		MeanWait:              stats.Mean(waits),
		P99Wait:               stats.Percentile(waits, 99),
		Makespan:              res.Makespan,
		Utilization:           res.Utilization,
		ProductiveUtilization: res.ProductiveUtilization,
		Rounds:                res.Rounds,
	}
	return p
}

// histOf builds a fixed-bin histogram spanning the sample range. The
// bounds derive deterministically from the data (not the collection
// order), so identical runs produce identical histograms.
func histOf(xs []float64, bins int) *stats.StreamingHist {
	if len(xs) == 0 {
		return nil
	}
	hi := stats.Max(xs)
	if hi <= 0 {
		hi = 1
	}
	h := stats.NewStreamingHist(0, hi, bins)
	// Feed in a sorted copy: the histogram's counts are order-invariant,
	// but Min/Max updates and future accumulation extensions are safest
	// on a canonical order.
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, x := range sorted {
		h.Observe(x)
	}
	return h
}
