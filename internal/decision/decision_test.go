package decision

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

const roundSec = 300

// step describes one decision observation: its span length, the running
// job IDs (the schedulable prefix), the number of waiting jobs, and the
// jobs placed or preempted in it.
type step struct {
	rounds   int
	running  []int
	waiting  int
	placed   []int
	preempts []int
}

// observe feeds the steps to r as consecutive spans starting at round
// start.
func observe(r *Recorder, start int64, steps []step) {
	round := start
	for _, s := range steps {
		o := sim.DecisionObservation{
			Start:    float64(round) * roundSec,
			RoundSec: roundSec,
			Rounds:   s.rounds,
			Prefix:   len(s.running),
			Waiting:  s.waiting,
		}
		for _, id := range s.running {
			o.Order = append(o.Order, &sim.Job{Spec: trace.JobSpec{ID: id, Demand: 1}})
			o.Ceilings = append(o.Ceilings, math.Inf(1))
		}
		for i := 0; i < s.waiting; i++ {
			o.Order = append(o.Order, &sim.Job{Spec: trace.JobSpec{ID: 100 + i, Demand: 2}})
		}
		for _, id := range s.placed {
			o.Placements = append(o.Placements, sim.PlacementDecision{Job: id, GPUs: 1, Nodes: 1, Racks: 1, Locality: 1})
		}
		for _, id := range s.preempts {
			o.Preemptions = append(o.Preemptions, sim.PreemptionDecision{Job: id, GPUs: 1})
		}
		r.ObserveDecision(o)
		round += int64(s.rounds)
	}
}

// run records steps on a fresh recorder and returns its trace.
func run(t *testing.T, cfg Config, steps []step) *Trace {
	t.Helper()
	r, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	observe(r, 0, steps)
	r.FinishRun(nil)
	return r.Trace()
}

// spans returns each record's (first round, span length).
func spans(tr *Trace) [][2]int64 {
	var out [][2]int64
	for _, rec := range tr.Records {
		out = append(out, [2]int64{rec.Round, int64(rec.Rounds)})
	}
	return out
}

// timeline is a run whose decisions change at rounds 0, 1, 4, 6 and
// 10, with repeat rounds and spans in between.
var timeline = []step{
	{rounds: 1, running: []int{0}, placed: []int{0}},
	{rounds: 1, running: []int{0, 1}, placed: []int{1}},
	{rounds: 1, running: []int{0, 1}},
	{rounds: 1, running: []int{1, 0}}, // same running set, other order
	{rounds: 2, running: []int{0, 1}, waiting: 1},
	{rounds: 1, running: []int{0}, waiting: 2, preempts: []int{1}},
	{rounds: 2, running: []int{0}, waiting: 2},
	{rounds: 1, running: []int{0}, waiting: 2},
	{rounds: 3, running: []int{2}, waiting: 1, placed: []int{2}},
}

// TestCoalescing: an observation repeating the newest record's decision
// — no placements or preemptions, the same running set (in any order),
// the same waiting count — extends that record; anything else opens a
// new one. Every observed round is counted once.
func TestCoalescing(t *testing.T) {
	tr := run(t, Config{}, timeline)
	want := [][2]int64{{0, 1}, {1, 3}, {4, 2}, {6, 4}, {10, 3}}
	if got := spans(tr); !reflect.DeepEqual(got, want) {
		t.Errorf("record spans %v, want %v", got, want)
	}
	if tr.Rounds != 13 || tr.Truncated || tr.Dropped != 0 {
		t.Errorf("rounds %d, truncated %v, dropped %d; want 13 rounds, nothing dropped", tr.Rounds, tr.Truncated, tr.Dropped)
	}
	if rec := tr.Records[3]; len(rec.Preemptions) != 1 || rec.Waiting != 2 || rec.Prefix != 1 {
		t.Errorf("preemption record %+v", rec)
	}
	if rec := tr.Records[1]; rec.Start != roundSec || len(rec.Order) != 2 || rec.Order[0].Ceiling != CeilingUnbounded {
		t.Errorf("record 1 %+v, want start %d and two ordered jobs with unbounded ceilings", rec, roundSec)
	}
}

// TestRingBound: the ring keeps the newest MaxRecords records, counts
// the evicted ones in Dropped and marks the trace Truncated, while the
// round count still covers the whole run.
func TestRingBound(t *testing.T) {
	tr := run(t, Config{MaxRecords: 3}, timeline)
	want := [][2]int64{{4, 2}, {6, 4}, {10, 3}}
	if got := spans(tr); !reflect.DeepEqual(got, want) {
		t.Errorf("record spans %v, want the newest three %v", got, want)
	}
	if tr.Dropped != 2 || !tr.Truncated || tr.Rounds != 13 {
		t.Errorf("dropped %d, truncated %v, rounds %d; want 2, true, 13", tr.Dropped, tr.Truncated, tr.Rounds)
	}
	if _, err := NewRecorder(Config{MaxRecords: -1}); err == nil {
		t.Error("a negative ring bound was accepted")
	}
}

// TestSnapshotRoundTrip: capturing a recorder mid-run and restoring the
// state into a fresh one yields the trace of a straight-through run, at
// every split point and with a ring that has already wrapped.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, cfg := range []Config{{Label: "x", Policy: "pal", Sched: "fifo"}, {MaxRecords: 3}} {
		straight := run(t, cfg, timeline)
		for split := 1; split < len(timeline); split++ {
			first := MustRecorder(cfg)
			observe(first, 0, timeline[:split])
			state, err := first.MarshalSnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			resumed := MustRecorder(cfg)
			if err := resumed.UnmarshalSnapshotState(state); err != nil {
				t.Fatal(err)
			}
			var start int64
			for _, s := range timeline[:split] {
				start += int64(s.rounds)
			}
			observe(resumed, start, timeline[split:])
			resumed.FinishRun(nil)
			if !reflect.DeepEqual(resumed.Trace(), straight) {
				t.Errorf("ring %d, split %d: resumed trace\n%+v\nwant\n%+v", cfg.MaxRecords, split, resumed.Trace(), straight)
			}
		}
	}
}

// TestSnapshotRestoreRejects: state restores only into a fresh recorder
// whose ring holds every captured record, and a finished recorder
// cannot be captured.
func TestSnapshotRestoreRejects(t *testing.T) {
	r := MustRecorder(Config{})
	observe(r, 0, timeline[:5])
	state, err := r.MarshalSnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	used := MustRecorder(Config{})
	observe(used, 0, timeline[:1])
	if err := used.UnmarshalSnapshotState(state); err == nil || !strings.Contains(err.Error(), "non-fresh") {
		t.Errorf("restore into a used recorder: %v, want a non-fresh error", err)
	}
	small := MustRecorder(Config{MaxRecords: 2}) // the state holds 3 records
	if err := small.UnmarshalSnapshotState(state); err == nil || !strings.Contains(err.Error(), "ring bound is 2") {
		t.Errorf("restore into a smaller ring: %v, want a ring-bound error", err)
	}
	r.FinishRun(nil)
	if _, err := r.MarshalSnapshotState(); err == nil {
		t.Error("a finished recorder was captured")
	}
}

// TestFromResult: the trace surfaces from a live recorder and from an
// archived sink alike, and a result without decisions — or no result —
// has none.
func TestFromResult(t *testing.T) {
	if FromResult(nil) != nil || FromResult(&sim.Result{}) != nil {
		t.Error("a trace from a nil or decision-less result")
	}
	tr := &Trace{Name: "archived"}
	if got := FromResult(&sim.Result{Decisions: NewArchivedSink(tr)}); got != tr {
		t.Errorf("archived sink gave %p, want %p", got, tr)
	}
	r := MustRecorder(Config{})
	observe(r, 0, timeline[:2])
	r.FinishRun(nil)
	if got := FromResult(&sim.Result{Decisions: r}); got == nil || got != r.Trace() {
		t.Error("live recorder's trace does not surface")
	}
}
