package export

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// Archives written by the previous codec revisions (pal-result/v3 and
// pal-snapshot/v2, the last JSON archives). The binary decoders must
// reject them with the version mismatch, never misread them.
const (
	resultArchiveV3   = `{"format":"pal-result/v3","jobs":[{"id":0,"model":"resnet50","class":0,"arrival":0,"demand":2,"work":600,"remaining":0,"alloc":null,"attained":1320,"started":true,"first_run":0,"finish":660,"done":true,"preemptions":0,"migrations":0,"prev_alloc":null}],"measured":[0],"makespan":660,"utilization":0.5,"productive_utilization":0,"rounds":3,"place_times":null,"metrics":null,"decisions":null,"truncated":false,"unfinished":0}`
	snapshotArchiveV2 = `{"format":"pal-snapshot/v2","snapshot":{"rounds":2,"now":600,"round_sec":300,"topology":{"NumNodes":1,"GPUsPerNode":4,"NodesPerRack":0},"next_arrival":1,"jobs":[{"id":0,"class":0,"arrival":0,"demand":2,"work":600,"remaining":100,"alloc":[0,1],"attained":1000,"started":true,"first_run":0,"finish":0,"prev_alloc":null}],"sched_name":"fifo","placer_name":"packed-sticky","sched_state":null,"placer_state":null,"metrics_state":null,"decisions_state":null}}`
)

// liveConfig is a small Synergy run with both sinks and an RNG-bearing
// placer attached, so its results and snapshots carry every archived
// surface: jobs, metrics payload or state, decision trace or state,
// placer state. Short rings keep the seeds a few kilobytes, small
// enough for the fuzzer to mutate quickly.
func liveConfig(t testing.TB) sim.Config {
	t.Helper()
	params := trace.DefaultSynergyParams(12)
	params.NumJobs = 8
	topo := cluster.Topology{NumNodes: 4, GPUsPerNode: 4}
	placer, err := place.Build("random-sticky", place.BuildEnv{Lacross: 1.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Topology:    topo,
		Trace:       trace.Synergy(params),
		Sched:       sched.FIFO{},
		Placer:      placer,
		TrueProfile: vprof.GenerateLonghorn(topo.Size(), 3),
		Lacross:     1.5,
		Metrics: metrics.MustCollector(metrics.Config{
			ClusterGPUs: topo.Size(), MaxSamples: 4, HistBins: 4,
			Series: []string{metrics.SeriesGPUsInUse, metrics.SeriesQueueDepth},
		}),
		Decisions: decision.MustRecorder(decision.Config{MaxRecords: 4}),
	}
}

// encodeResult and encodeSnapshot encode or fail the test.
func encodeResult(t testing.TB, res *sim.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeSnapshot(t testing.TB, snap *sim.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeResult: every input is either rejected or decodes to a
// result whose encoding is a fixed point of decode+encode, and nothing
// panics. Encoded live results re-encode to their own bytes; the
// previous revision's archive is rejected as a version mismatch.
func FuzzDecodeResult(f *testing.F) {
	live, err := sim.Run(liveConfig(f))
	if err != nil {
		f.Fatal(err)
	}
	for _, res := range []*sim.Result{live, sampleResult()} {
		enc := encodeResult(f, res)
		got, err := DecodeResult(bytes.NewReader(enc))
		if err != nil {
			f.Fatal(err)
		}
		if !bytes.Equal(encodeResult(f, got), enc) {
			f.Fatal("live result does not re-encode byte-identically")
		}
		f.Add(enc)
	}
	if _, err := DecodeResult(strings.NewReader(resultArchiveV3)); err == nil ||
		!strings.Contains(err.Error(), "codec version mismatch") {
		f.Fatalf("JSON v3 result archive: err = %v, want a version mismatch", err)
	}
	f.Add([]byte(resultArchiveV3))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := EncodeResult(&first, res); err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		again, err := DecodeResult(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded archive rejected: %v", err)
		}
		if !bytes.Equal(encodeResult(t, again), first.Bytes()) {
			t.Fatal("re-encoding is not byte-identical")
		}
	})
}

// FuzzDecodeSnapshot is FuzzDecodeResult for the snapshot codec, seeded
// with live captures (sinks and placer state attached, one before and
// one after the first completions) and the previous revision's archive.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, horizon := range []int{3, 12} {
		snap, _, err := sim.Capture(liveConfig(f), horizon)
		if err != nil {
			f.Fatal(err)
		}
		if snap == nil {
			f.Fatalf("run finished before horizon %d", horizon)
		}
		enc := encodeSnapshot(f, snap)
		got, err := DecodeSnapshot(bytes.NewReader(enc))
		if err != nil {
			f.Fatal(err)
		}
		if !bytes.Equal(encodeSnapshot(f, got), enc) {
			f.Fatal("live snapshot does not re-encode byte-identically")
		}
		f.Add(enc)
	}
	if _, err := DecodeSnapshot(strings.NewReader(snapshotArchiveV2)); err == nil ||
		!strings.Contains(err.Error(), "codec version mismatch") {
		f.Fatalf("JSON v2 snapshot archive: err = %v, want a version mismatch", err)
	}
	f.Add([]byte(snapshotArchiveV2))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := EncodeSnapshot(&first, snap); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		again, err := DecodeSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded archive rejected: %v", err)
		}
		if !bytes.Equal(encodeSnapshot(t, again), first.Bytes()) {
			t.Fatal("re-encoding is not byte-identical")
		}
	})
}
