package scenario_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/export"
	"repro/internal/scenario"
)

// forkBaseSpec is a small but non-trivial configuration: enough jobs
// and few enough GPUs that the queue stays contended across the fork
// horizon, with both sinks recording so their state rides the
// snapshot.
const forkBaseSpec = `{
	"name": "fork-base",
	"cluster": {"nodes": 4, "gpus_per_node": 4},
	"workload": {"source": "synthetic", "num_jobs": 60, "jobs_per_hour": 40},
	"sched": {"name": "las"},
	"metrics": {"enabled": true},
	"decisions": {"enabled": true}
}`

// buildSpec parses and builds a spec from JSON, with optional mutation
// between parse and build.
func buildSpec(t *testing.T, src string, mutate func(*scenario.Spec)) *scenario.Built {
	t.Helper()
	s, err := scenario.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(s)
		s.Normalize()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// resultBytes archives a result through the versioned codec with the
// wall-clock field neutralized — the byte-identity comparison form.
func resultBytes(t *testing.T, b *scenario.Built) []byte {
	t.Helper()
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	res.PlaceTimes = nil
	var buf bytes.Buffer
	if err := export.EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestForkedRunByteIdentical: a fork whose warmup equals the spec's own
// policies (pure prefix caching) must reproduce the unforked run bit
// for bit — capture/resume is not allowed to perturb anything.
func TestForkedRunByteIdentical(t *testing.T) {
	plain := buildSpec(t, forkBaseSpec, nil)
	want := resultBytes(t, plain)
	for _, horizon := range []int{1, 7, 40} {
		forked := buildSpec(t, forkBaseSpec, func(s *scenario.Spec) {
			s.Fork = &scenario.ForkSpec{Rounds: horizon}
		})
		if got := resultBytes(t, forked); !bytes.Equal(got, want) {
			t.Errorf("fork at round %d diverged from the unforked run", horizon)
		}
	}
}

// TestSharedSnapshotMatchesOwnCapture: cells differing only in their
// post-fork policies share a prefix; resuming cell B from cell A's
// snapshot must equal B simulating its own prefix — the property that
// makes cross-cell snapshot sharing sound.
func TestSharedSnapshotMatchesOwnCapture(t *testing.T) {
	fork := &scenario.ForkSpec{Rounds: 12, Policy: "packed-sticky", Sched: "fifo"}
	cellA := buildSpec(t, forkBaseSpec, func(s *scenario.Spec) {
		s.Fork = &scenario.ForkSpec{Rounds: fork.Rounds, Policy: fork.Policy, Sched: fork.Sched}
		s.Policy.Name = "pal"
	})
	cellB := buildSpec(t, forkBaseSpec, func(s *scenario.Spec) {
		s.Fork = &scenario.ForkSpec{Rounds: fork.Rounds, Policy: fork.Policy, Sched: fork.Sched}
		s.Policy.Name = "pm-first"
		s.Sched.Name = "srtf"
		s.Sched.Params = nil
	})
	if cellA.PrefixKey() != cellB.PrefixKey() {
		t.Fatalf("cells differing only in post-fork policies have different prefix keys:\n  A %s\n  B %s",
			cellA.PrefixKey(), cellB.PrefixKey())
	}
	snapA, early, err := cellA.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snapA == nil {
		t.Fatalf("warmup completed before the horizon (early=%v); enlarge the workload", early != nil)
	}
	shared, err := cellB.ResumeFrom(snapA)
	if err != nil {
		t.Fatal(err)
	}
	own, err := cellB.RunForked(nil)
	if err != nil {
		t.Fatal(err)
	}
	shared.PlaceTimes, own.PlaceTimes = nil, nil
	var a, b bytes.Buffer
	if err := export.EncodeResult(&a, shared); err != nil {
		t.Fatal(err)
	}
	if err := export.EncodeResult(&b, own); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resuming from a shared snapshot diverged from simulating the cell's own prefix")
	}
}

// TestPrefixKeySensitivity: the prefix key must separate cells whose
// warmup runs genuinely differ — and only those.
func TestPrefixKeySensitivity(t *testing.T) {
	base := func() *scenario.Built {
		return buildSpec(t, forkBaseSpec, func(s *scenario.Spec) {
			s.Fork = &scenario.ForkSpec{Rounds: 10, Policy: "packed-sticky"}
		})
	}
	ref := base().PrefixKey()

	// The cell's own post-fork policy must NOT move the prefix key.
	same := buildSpec(t, forkBaseSpec, func(s *scenario.Spec) {
		s.Fork = &scenario.ForkSpec{Rounds: 10, Policy: "packed-sticky"}
		s.Policy.Name = "pm-first"
	})
	if same.PrefixKey() != ref {
		t.Error("post-fork policy perturbs the prefix key (kills snapshot sharing)")
	}
	// Neither must the cell's name.
	renamed := buildSpec(t, forkBaseSpec, func(s *scenario.Spec) {
		s.Fork = &scenario.ForkSpec{Rounds: 10, Policy: "packed-sticky"}
		s.Name = "other"
	})
	if renamed.PrefixKey() != ref {
		t.Error("cell name perturbs the prefix key (kills snapshot sharing)")
	}

	// Everything the warmup run can observe must move it.
	perturb := map[string]func(*scenario.Spec){
		"horizon":       func(s *scenario.Spec) { s.Fork.Rounds = 11 },
		"warmup policy": func(s *scenario.Spec) { s.Fork.Policy = "random-sticky" },
		"warmup sched":  func(s *scenario.Spec) { s.Fork.Sched = "fifo" },
		"seed":          func(s *scenario.Spec) { s.Seed = 2 },
		"cluster":       func(s *scenario.Spec) { s.Cluster.Nodes = 5 },
		"round length":  func(s *scenario.Spec) { s.Engine.RoundSec = 120 },
		"metrics off":   func(s *scenario.Spec) { s.Metrics = scenario.MetricsSpec{} },
	}
	for what, mutate := range perturb {
		b := buildSpec(t, forkBaseSpec, func(s *scenario.Spec) {
			s.Fork = &scenario.ForkSpec{Rounds: 10, Policy: "packed-sticky"}
			mutate(s)
		})
		if b.PrefixKey() == ref {
			t.Errorf("%s does not perturb the prefix key (cells with different warmups would share a snapshot)", what)
		}
	}
}

// TestForkNormalization: naming the spec's own policy as warmup
// canonicalizes to the empty ("own") form, so both spellings share one
// cache key; a fork block must also survive grid expansion into every
// cell.
func TestForkNormalization(t *testing.T) {
	explicit := buildSpec(t, forkBaseSpec, func(s *scenario.Spec) {
		s.Fork = &scenario.ForkSpec{Rounds: 10, Policy: s.Policy.Name, Sched: s.Sched.Name}
	})
	if explicit.Spec.Fork.Policy != "" || explicit.Spec.Fork.Sched != "" {
		t.Errorf("own-policy warmup did not canonicalize to empty: %+v", explicit.Spec.Fork)
	}

	src := fmt.Sprintf(`{
		"name": "fg",
		"cluster": {"nodes": 4},
		"workload": {"source": "synthetic", "num_jobs": 30, "jobs_per_hour": 30},
		"fork": {"rounds": 8, "policy": "packed-sticky"},
		"grid": {"policies": ["pal", "pm-first"]}
	}`)
	s, err := scenario.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.ExpandGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	keys := make(map[string]bool)
	for _, c := range cells {
		if c.Fork == nil || c.Fork.Rounds != 8 {
			t.Fatalf("cell %s lost the fork block: %+v", c.Name, c.Fork)
		}
		b, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		keys[b.PrefixKey()] = true
	}
	if len(keys) != 1 {
		t.Errorf("policy-axis cells of one fork grid have %d prefix keys, want 1 shared", len(keys))
	}
}

// TestForkRejectsBadHorizon: a non-positive horizon is a spec error.
func TestForkRejectsBadHorizon(t *testing.T) {
	_, err := scenario.Parse([]byte(`{
		"name": "bad",
		"workload": {"source": "synthetic", "num_jobs": 10},
		"fork": {"rounds": 0}
	}`))
	if err == nil {
		t.Fatal("fork rounds 0 accepted, want a validation error")
	}
}

// TestForkPastEndOfRun: a horizon beyond the run's natural end returns
// the warmup run's result unchanged — with an own-policy warmup that
// is byte-identical to the unforked run.
func TestForkPastEndOfRun(t *testing.T) {
	plain := buildSpec(t, forkBaseSpec, nil)
	want := resultBytes(t, plain)
	forked := buildSpec(t, forkBaseSpec, func(s *scenario.Spec) {
		s.Fork = &scenario.ForkSpec{Rounds: 1000000}
	})
	if got := resultBytes(t, forked); !bytes.Equal(got, want) {
		t.Error("past-end fork diverged from the unforked run")
	}
}
