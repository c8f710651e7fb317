package export

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sampleResult builds a hand-crafted result exercising every archived
// surface: done/running/never-started jobs, preserved allocations,
// measured aliasing, place times and truncation (the sink payloads
// have their own tests).
func sampleResult() *sim.Result {
	jobs := []*sim.Job{
		{
			Spec:      trace.JobSpec{ID: 0, Model: "resnet50", Class: 1, Arrival: 0, Demand: 2, Work: 600},
			Remaining: 0, Attained: 1320, Started: true, FirstRun: 0,
			Finish: 660.5, Done: true, Preemptions: 1, Migrations: 1,
			PrevAlloc: []cluster.GPUID{0, 1},
		},
		{
			// Still holding GPUs (a truncated run's survivor).
			Spec:      trace.JobSpec{ID: 1, Model: "gpt2", Class: 2, Arrival: 30, Demand: 1, Work: 1e6},
			Remaining: 9.5e5, Attained: 50000, Started: true, FirstRun: 300,
			Alloc: []cluster.GPUID{3},
		},
		{
			// Arrived, never scheduled.
			Spec: trace.JobSpec{ID: 2, Model: "a3c", Class: 0, Arrival: 60, Demand: 4, Work: 100},
			// Remaining intentionally equals Work.
			Remaining: 100,
		},
	}
	res := &sim.Result{
		Jobs:                  jobs,
		Measured:              []*sim.Job{jobs[0]},
		Makespan:              660.5,
		Utilization:           0.3341,
		ProductiveUtilization: 0.2123,
		Rounds:                5,
		PlaceTimes:            []float64{1.25e-5, 3e-6},
		Truncated:             true,
		Unfinished:            2,
	}
	return res
}

// TestResultCodecRoundTrip: decode(encode(res)) must deep-equal res —
// including nil-versus-empty slice distinctions and the Measured slice
// aliasing Jobs — and re-encoding must reproduce identical bytes.
func TestResultCodecRoundTrip(t *testing.T) {
	res := sampleResult()
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Fatalf("round trip diverged:\n in  %+v\nout %+v", res, got)
	}
	// Measured must alias the decoded Jobs, not copy them.
	if got.Measured[0] != got.Jobs[0] {
		t.Error("Measured[0] does not alias Jobs[0] after decode")
	}
	var again bytes.Buffer
	if err := EncodeResult(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("codec is not a fixed point: re-encoding changed bytes")
	}
}

// TestResultCodecPreservesNilVersusEmpty: a minimal result with every
// optional slice nil must come back with them nil (reflect.DeepEqual
// distinguishes nil from empty, and so do the byte-identity suites).
func TestResultCodecPreservesNilVersusEmpty(t *testing.T) {
	res := &sim.Result{
		Jobs:   []*sim.Job{{Spec: trace.JobSpec{ID: 0, Demand: 1, Work: 1}, Done: true, Started: true, Finish: 1}},
		Rounds: 1,
	}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Measured != nil || got.PlaceTimes != nil {
		t.Errorf("nil slices became non-nil: %+v", got)
	}
	if got.Jobs[0].Alloc != nil || got.Jobs[0].PrevAlloc != nil {
		t.Error("nil allocations became non-nil")
	}
	if !reflect.DeepEqual(res, got) {
		t.Fatal("minimal result did not round-trip")
	}
}

// TestResultCodecMetricsPayload: an attached collector payload is
// embedded and resurfaces through metrics.FromResult on the decoded
// result.
func TestResultCodecMetricsPayload(t *testing.T) {
	res := sampleResult()
	payload := &metrics.Payload{
		Name: "codec-test", Policy: "pal", Sched: "fifo",
		IntervalRounds: 1, RoundSec: 300, TimeBase: 0,
		Series: []metrics.SeriesData{{
			Name: metrics.SeriesGPUsInUse, Rounds: []int64{0, 1}, Values: []float64{2, 3},
		}},
		Truncated: true, Unfinished: 2,
	}
	res.Metrics = metrics.NewArchivedSink(payload)
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(metrics.FromResult(got), payload) {
		t.Fatalf("payload did not round-trip: %+v", metrics.FromResult(got))
	}
}

// TestResultCodecRejectsUnarchivableSink: a custom sink without a
// payload must fail encoding loudly, never drop telemetry silently.
func TestResultCodecRejectsUnarchivableSink(t *testing.T) {
	res := sampleResult()
	res.Metrics = opaqueSink{}
	if err := EncodeResult(&bytes.Buffer{}, res); err == nil ||
		!strings.Contains(err.Error(), "no extractable payload") {
		t.Fatalf("err = %v, want unarchivable-sink error", err)
	}
}

type opaqueSink struct{}

func (opaqueSink) ObserveRounds(sim.RoundObservation) {}
func (opaqueSink) FinishRun(*sim.Result)              {}

// TestResultCodecRejectsWrongVersion: an archive from any other codec
// revision must be refused with a version message, not misread — the
// JSON archives of earlier revisions included.
func TestResultCodecRejectsWrongVersion(t *testing.T) {
	enc := encodeResult(t, sampleResult())
	tampered := bytes.Replace(enc,
		[]byte("pal-result/"+ResultFormatVersion+"\n"),
		[]byte("pal-result/v999\n"), 1)
	if bytes.Equal(tampered, enc) {
		t.Fatal("tampering failed to find the format tag")
	}
	for name, data := range map[string][]byte{
		"tampered tag":         tampered,
		"json v3":              []byte(resultArchiveV3),
		"empty":                nil,
		"tag only, no newline": []byte(resultFormat),
	} {
		if _, err := DecodeResult(bytes.NewReader(data)); err == nil ||
			!strings.Contains(err.Error(), "codec version mismatch") {
			t.Errorf("%s: err = %v, want codec version mismatch", name, err)
		}
	}
}

// TestResultCodecRejectsTrailingBytes: bytes after the body (a future
// codec that forgot to bump, or a corrupted archive) fail loudly — the
// binary counterpart of rejecting unknown fields.
func TestResultCodecRejectsTrailingBytes(t *testing.T) {
	enc := encodeResult(t, sampleResult())
	for _, extra := range [][]byte{{0}, {1, 2, 3}} {
		tampered := append(bytes.Clone(enc), extra...)
		if _, err := DecodeResult(bytes.NewReader(tampered)); err == nil ||
			!strings.Contains(err.Error(), "trailing bytes") {
			t.Fatalf("+%d bytes: err = %v, want trailing-bytes error", len(extra), err)
		}
	}
}

// TestResultCodecRejectsTruncation: every proper prefix of an archive
// is rejected, never decoded into a partial result.
func TestResultCodecRejectsTruncation(t *testing.T) {
	res := sampleResult()
	res.Metrics = metrics.NewArchivedSink(&metrics.Payload{
		Name: "trunc", Series: []metrics.SeriesData{{Name: "s", Rounds: []int64{0}, Values: []float64{1}}},
	})
	enc := encodeResult(t, res)
	for n := range len(enc) {
		if _, err := DecodeResult(bytes.NewReader(enc[:n])); err == nil {
			t.Fatalf("archive truncated to %d of %d bytes decoded", n, len(enc))
		}
	}
}

// TestResultCodecRejectsBadMeasuredIndex: a measured index outside Jobs
// is corruption, not a job. The index byte is located by encoding two
// results that differ only in which job is measured.
func TestResultCodecRejectsBadMeasuredIndex(t *testing.T) {
	res := sampleResult()
	first := encodeResult(t, res)
	res.Measured = []*sim.Job{res.Jobs[2]}
	second := encodeResult(t, res)
	if len(first) != len(second) {
		t.Fatal("measured index changed the archive length")
	}
	pos := -1
	for i := range first {
		if first[i] != second[i] {
			if pos >= 0 {
				t.Fatal("more than one byte differs")
			}
			pos = i
		}
	}
	if pos < 0 || first[pos] != 0 || second[pos] != 2 {
		t.Fatalf("measured index byte not found (pos %d)", pos)
	}
	tampered := bytes.Clone(first)
	tampered[pos] = 7
	if _, err := DecodeResult(bytes.NewReader(tampered)); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want out-of-range error", err)
	}
}

// TestResultCodecRejectsOversizedLength: a length prefix claiming more
// elements than the archive has bytes left is rejected before any
// allocation, so a corrupt file cannot force a huge one.
func TestResultCodecRejectsOversizedLength(t *testing.T) {
	for _, n := range []uint64{1 << 20, 1 << 40, 1<<64 - 1} {
		data := binary.AppendUvarint([]byte(resultFormat+"\n"), n)
		if _, err := DecodeResult(bytes.NewReader(data)); err == nil ||
			!strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("jobs length %d: err = %v, want a length error", n, err)
		}
	}
}
