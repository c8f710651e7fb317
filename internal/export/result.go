package export

import (
	"fmt"
	"io"

	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Canonical result codec: the deterministic binary round-trip of a
// *sim.Result the artifact store (internal/store) persists, in the
// layout codec.go defines. The contract is exact reproduction, same
// rigor as the engine's stepping byte-identity suites:
//
//   - every field of Result and of every Job round-trips bit-for-bit,
//     nil and empty slices staying distinct, so reflect.DeepEqual holds
//     across a round trip;
//   - Truncated/Unfinished are always encoded, so a truncated run can
//     never be mistaken for a complete one after a reload;
//   - a metrics payload on the result (Result.Metrics) is embedded in
//     the archive and comes back as a metrics.ArchivedSink, so
//     metrics.FromResult works identically on live and loaded results —
//     and a decision trace (Result.Decisions) likewise embeds and comes
//     back as a decision.ArchivedSink;
//   - the format tag names the codec revision; DecodeResult rejects
//     any other revision loudly instead of guessing.
//
// Bumping the codec (any change to the layout or its semantics) means
// bumping ResultFormatVersion. The version is deliberately part of the
// store's on-disk layout, NOT of the simulation cache keys: a codec
// bump invalidates persisted artifacts without perturbing RunSpec/
// scenario keys or their golden-key tests.

// ResultFormatVersion names the result-codec revision. internal/store
// namespaces its object tree by this string, so a bump orphans (and
// eventually GCs) old artifacts instead of misreading them.
// v2 added the embedded decision trace; v3 dropped the legacy
// util_series and events arrays; v4 replaced the indented JSON archive
// with the binary layout of codec.go.
const ResultFormatVersion = "v4"

// resultFormat is the full format tag embedded in every archive.
const resultFormat = "pal-result/" + ResultFormatVersion

// EncodeResult writes res as a deterministic, versioned binary
// archive. Encoding the same result twice produces identical bytes. A
// result carrying a metrics sink that does not expose a payload
// (anything other than a metrics.Collector or metrics.ArchivedSink) —
// or a decision sink that does not expose a trace — cannot be archived
// faithfully and is an error rather than a silent drop.
func EncodeResult(w io.Writer, res *sim.Result) error {
	if res == nil {
		return fmt.Errorf("export: nil result")
	}
	var payload *metrics.Payload
	if res.Metrics != nil {
		payload = metrics.FromResult(res)
		if payload == nil {
			return fmt.Errorf("export: result carries a metrics sink (%T) with no extractable payload", res.Metrics)
		}
	}
	var decisions *decision.Trace
	if res.Decisions != nil {
		decisions = decision.FromResult(res)
		if decisions == nil {
			return fmt.Errorf("export: result carries a decision sink (%T) with no extractable trace", res.Decisions)
		}
	}
	if res.Jobs == nil && res.Measured != nil {
		return fmt.Errorf("export: result has Measured jobs but no Jobs")
	}
	e := newEncoder(resultFormat)
	defer e.done()
	e.length(len(res.Jobs), res.Jobs == nil)
	index := make(map[*sim.Job]int, len(res.Jobs))
	for i, j := range res.Jobs {
		index[j] = i
		st := j.State()
		putJob(e, &st)
	}
	// Measured holds indices into Jobs, so the decoded Measured slice
	// aliases the same *Job values, exactly as the engine leaves it.
	e.length(len(res.Measured), res.Measured == nil)
	for _, j := range res.Measured {
		idx, ok := index[j]
		if !ok {
			return fmt.Errorf("export: measured job %d is not in Jobs", j.Spec.ID)
		}
		e.uvarint(uint64(idx))
	}
	e.float(res.Makespan)
	e.float(res.Utilization)
	e.float(res.ProductiveUtilization)
	e.int(res.Rounds)
	e.floats(res.PlaceTimes)
	e.bool(payload != nil)
	if payload != nil {
		putPayload(e, payload)
	}
	e.bool(decisions != nil)
	if decisions != nil {
		putTrace(e, decisions)
	}
	e.bool(res.Truncated)
	e.int(res.Unfinished)
	if _, err := w.Write(e.buf); err != nil {
		return fmt.Errorf("export: encode result: %w", err)
	}
	return nil
}

// DecodeResult reads an archive written by EncodeResult back into a
// *sim.Result. Any format revision other than the current one, a
// truncated or corrupt body and trailing bytes are rejected — a store
// populated by another codec fails loudly instead of yielding a
// silently lossy result.
func DecodeResult(r io.Reader) (*sim.Result, error) {
	d, err := readArchive(r, resultFormat, "result")
	if err != nil {
		return nil, err
	}
	res := &sim.Result{}
	if n, isNil := d.length(1); !isNil {
		// One block backs every decoded job.
		block := make([]sim.Job, n)
		res.Jobs = make([]*sim.Job, n)
		var st sim.JobState
		for i := range block {
			getJob(d, &st)
			block[i] = st.Job()
			res.Jobs[i] = &block[i]
		}
	}
	if n, isNil := d.length(1); !isNil {
		res.Measured = make([]*sim.Job, n)
		for i := range res.Measured {
			idx := d.uvarint()
			if d.err != nil {
				break
			}
			if idx >= uint64(len(res.Jobs)) {
				d.fail("measured index %d out of range (have %d jobs)", idx, len(res.Jobs))
				break
			}
			res.Measured[i] = res.Jobs[idx]
		}
	}
	res.Makespan = d.float()
	res.Utilization = d.float()
	res.ProductiveUtilization = d.float()
	res.Rounds = d.int()
	res.PlaceTimes = d.floats()
	if d.bool() {
		var p metrics.Payload
		getPayload(d, &p)
		res.Metrics = metrics.NewArchivedSink(&p)
	}
	if d.bool() {
		var t decision.Trace
		getTrace(d, &t)
		res.Decisions = decision.NewArchivedSink(&t)
	}
	res.Truncated = d.bool()
	res.Unfinished = d.int()
	if err := d.finish("result"); err != nil {
		return nil, err
	}
	return res, nil
}

// putPayload and getPayload carry an embedded metrics payload, field
// by field in declaration order.
func putPayload(e *encoder, p *metrics.Payload) {
	e.str(p.Name)
	e.str(p.Policy)
	e.str(p.Sched)
	e.str(p.Key)
	e.int(p.ClusterGPUs)
	e.int(p.IntervalRounds)
	e.float(p.RoundSec)
	e.float(p.TimeBase)
	putSlice(e, p.Series, func(e *encoder, s *metrics.SeriesData) {
		e.str(s.Name)
		e.int64s(s.Rounds)
		e.floats(s.Values)
		e.int64(s.Dropped)
	})
	putSlice(e, p.Jobs, func(e *encoder, j *metrics.JobRecord) {
		e.int(j.ID)
		e.str(j.Model)
		e.str(j.Class)
		e.float(j.Arrival)
		e.int(j.Demand)
		e.float(j.Work)
		e.bool(j.Started)
		e.float(j.FirstRun)
		e.bool(j.Done)
		e.float(j.Finish)
		e.float(j.JCT)
		e.float(j.Wait)
		e.bool(j.Rejected)
		e.int(j.Preemptions)
		e.int(j.Migrations)
		e.bool(j.Measured)
	})
	putHist(e, p.JCTHist)
	putHist(e, p.WaitHist)
	a := &p.Aggregates
	e.int(a.Jobs)
	e.int(a.Measured)
	e.float(a.AvgJCT)
	e.float(a.P50JCT)
	e.float(a.P90JCT)
	e.float(a.P99JCT)
	e.float(a.MeanWait)
	e.float(a.P99Wait)
	e.float(a.Makespan)
	e.float(a.Utilization)
	e.float(a.ProductiveUtilization)
	e.int(a.Rounds)
	e.bool(p.Truncated)
	e.int(p.Unfinished)
}

func getPayload(d *decoder, p *metrics.Payload) {
	p.Name = d.str()
	p.Policy = d.str()
	p.Sched = d.str()
	p.Key = d.str()
	p.ClusterGPUs = d.int()
	p.IntervalRounds = d.int()
	p.RoundSec = d.float()
	p.TimeBase = d.float()
	p.Series = getSlice(d, func(d *decoder, s *metrics.SeriesData) {
		s.Name = d.str()
		s.Rounds = d.int64s()
		s.Values = d.floats()
		s.Dropped = d.int64()
	})
	p.Jobs = getSlice(d, func(d *decoder, j *metrics.JobRecord) {
		j.ID = d.int()
		j.Model = d.str()
		j.Class = d.str()
		j.Arrival = d.float()
		j.Demand = d.int()
		j.Work = d.float()
		j.Started = d.bool()
		j.FirstRun = d.float()
		j.Done = d.bool()
		j.Finish = d.float()
		j.JCT = d.float()
		j.Wait = d.float()
		j.Rejected = d.bool()
		j.Preemptions = d.int()
		j.Migrations = d.int()
		j.Measured = d.bool()
	})
	p.JCTHist = getHist(d)
	p.WaitHist = getHist(d)
	a := &p.Aggregates
	a.Jobs = d.int()
	a.Measured = d.int()
	a.AvgJCT = d.float()
	a.P50JCT = d.float()
	a.P90JCT = d.float()
	a.P99JCT = d.float()
	a.MeanWait = d.float()
	a.P99Wait = d.float()
	a.Makespan = d.float()
	a.Utilization = d.float()
	a.ProductiveUtilization = d.float()
	a.Rounds = d.int()
	p.Truncated = d.bool()
	p.Unfinished = d.int()
}

func putHist(e *encoder, h *stats.StreamingHist) {
	e.bool(h != nil)
	if h == nil {
		return
	}
	e.float(h.Lo)
	e.float(h.Hi)
	e.int64s(h.Counts)
	e.int64(h.N)
	e.float(h.Min)
	e.float(h.Max)
}

func getHist(d *decoder) *stats.StreamingHist {
	if !d.bool() {
		return nil
	}
	h := &stats.StreamingHist{}
	h.Lo = d.float()
	h.Hi = d.float()
	h.Counts = d.int64s()
	h.N = d.int64()
	h.Min = d.float()
	h.Max = d.float()
	return h
}

// putTrace and getTrace carry an embedded decision trace.
func putTrace(e *encoder, t *decision.Trace) {
	e.str(t.Name)
	e.str(t.Policy)
	e.str(t.Sched)
	e.str(t.Key)
	e.float(t.RoundSec)
	e.float(t.TimeBase)
	putSlice(e, t.Facets, func(e *encoder, f *string) { e.str(*f) })
	putSlice(e, t.Records, func(e *encoder, r *decision.Record) {
		e.int64(r.Round)
		e.float(r.Start)
		e.int(r.Rounds)
		putSlice(e, r.Order, func(e *encoder, o *decision.OrderEntry) {
			e.int(o.Job)
			e.int(o.Demand)
			e.float(o.Attained)
			e.bool(o.Running)
			e.float(o.Ceiling)
		})
		e.int(r.Prefix)
		e.int(r.Waiting)
		putSlice(e, r.Placements, func(e *encoder, p *decision.Placement) {
			e.int(p.Job)
			e.int(p.GPUs)
			e.int(p.Nodes)
			e.int(p.Racks)
			e.float(p.Locality)
			e.float(p.PMScore)
			e.float(p.Slowdown)
			e.bool(p.Started)
			e.bool(p.Resumed)
			e.bool(p.Migrated)
		})
		putSlice(e, r.Preemptions, func(e *encoder, p *decision.Preemption) {
			e.int(p.Job)
			e.int(p.GPUs)
		})
	})
	e.int64(t.Dropped)
	e.bool(t.Truncated)
	e.bool(t.RunTruncated)
	e.int(t.Unfinished)
	e.int64(t.Rounds)
}

func getTrace(d *decoder, t *decision.Trace) {
	t.Name = d.str()
	t.Policy = d.str()
	t.Sched = d.str()
	t.Key = d.str()
	t.RoundSec = d.float()
	t.TimeBase = d.float()
	t.Facets = getSlice(d, func(d *decoder, f *string) { *f = d.str() })
	t.Records = getSlice(d, func(d *decoder, r *decision.Record) {
		r.Round = d.int64()
		r.Start = d.float()
		r.Rounds = d.int()
		r.Order = getSlice(d, func(d *decoder, o *decision.OrderEntry) {
			o.Job = d.int()
			o.Demand = d.int()
			o.Attained = d.float()
			o.Running = d.bool()
			o.Ceiling = d.float()
		})
		r.Prefix = d.int()
		r.Waiting = d.int()
		r.Placements = getSlice(d, func(d *decoder, p *decision.Placement) {
			p.Job = d.int()
			p.GPUs = d.int()
			p.Nodes = d.int()
			p.Racks = d.int()
			p.Locality = d.float()
			p.PMScore = d.float()
			p.Slowdown = d.float()
			p.Started = d.bool()
			p.Resumed = d.bool()
			p.Migrated = d.bool()
		})
		r.Preemptions = getSlice(d, func(d *decoder, p *decision.Preemption) {
			p.Job = d.int()
			p.GPUs = d.int()
		})
	})
	t.Dropped = d.int64()
	t.Truncated = d.bool()
	t.RunTruncated = d.bool()
	t.Unfinished = d.int()
	t.Rounds = d.int64()
}
