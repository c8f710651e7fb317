package sim_test

// Equivalence guard for the fast-forward engine: for every workload ×
// scheduler × placer combination below, a run with fast-forwarding
// enabled must be *byte-identical* to the naive round-by-round loop —
// same per-job tables (JCT, waits, attained service, preemption and
// migration counts), same aggregate metrics, bit for bit. The only
// field excluded is PlaceTimes' values, which are wall-clock
// measurements; their count must match for sticky and RNG placers, and
// may only shrink for PAL and PM-First, whose settled placements the
// fast path skips (see checkPlaceCounts). The per-round
// observation stream (GPUs in use, queue depth, lifecycle records) is
// compared over the same matrix, with a metrics sink attached, by
// TestMetricsFastForwardByteIdentical.

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// clusterTopology returns an n-node, 4-GPUs-per-node topology.
func clusterTopology(nodes int) cluster.Topology {
	return cluster.Topology{NumNodes: nodes, GPUsPerNode: 4}
}

// ffCase is one workload/policy combination of the equivalence matrix.
type ffCase struct {
	name   string
	trace  *trace.Trace
	nodes  int
	sched  sim.Scheduler
	placer func() sim.Placer // fresh placer per run (placers hold RNG state)
}

func ffCases(t *testing.T) []ffCase {
	t.Helper()
	siaParams := trace.DefaultSiaPhillyParams()
	synParams := trace.DefaultSynergyParams(2) // sparse: ~2 jobs/hour
	synParams.NumJobs = 150
	profile64 := vprof.GenerateLonghorn(64, 0x9A1)
	binned64 := vprof.BinProfile(profile64)
	return []ffCase{
		{
			name:   "sia1/fifo/packed-sticky",
			trace:  trace.SiaPhilly(siaParams, 1),
			nodes:  16,
			sched:  sched.FIFO{},
			placer: func() sim.Placer { return place.NewPacked(true, 7) },
		},
		{
			name:   "sia5/las/packed-sticky",
			trace:  trace.SiaPhilly(siaParams, 5),
			nodes:  16,
			sched:  sched.LAS{},
			placer: func() sim.Placer { return place.NewPacked(true, 7) },
		},
		{
			name:   "sia3/fifo/random-sticky",
			trace:  trace.SiaPhilly(siaParams, 3),
			nodes:  16,
			sched:  sched.FIFO{},
			placer: func() sim.Placer { return place.NewRandom(true, 11) },
		},
		{
			// Sparse Philly-like arrivals: long jobs, long quiet stretches —
			// the fast-forward sweet spot.
			name:   "synergy-sparse/fifo/packed-sticky",
			trace:  trace.Synergy(synParams),
			nodes:  16,
			sched:  sched.FIFO{},
			placer: func() sim.Placer { return place.NewPacked(true, 7) },
		},
		{
			// PAL and PM-First are non-sticky but deterministic: the fast
			// path skips placement and bulk advances only once a placement
			// round kept every allocation (settled placement), under every
			// scheduler, with the migration penalty charged on the rounds
			// that do migrate.
			name:   "sia1/fifo/pal",
			trace:  trace.SiaPhilly(siaParams, 1),
			nodes:  16,
			sched:  sched.FIFO{},
			placer: func() sim.Placer { return core.NewPAL(binned64, 1.5, nil) },
		},
		{
			name:   "sia1/las/pal",
			trace:  trace.SiaPhilly(siaParams, 1),
			nodes:  16,
			sched:  sched.LAS{},
			placer: func() sim.Placer { return core.NewPAL(binned64, 1.5, nil) },
		},
		{
			name:   "sia3/srtf/pal",
			trace:  trace.SiaPhilly(siaParams, 3),
			nodes:  16,
			sched:  sched.SRTF{},
			placer: func() sim.Placer { return core.NewPAL(binned64, 1.5, nil) },
		},
		{
			name:   "sia5/las/pm-first",
			trace:  trace.SiaPhilly(siaParams, 5),
			nodes:  16,
			sched:  sched.LAS{},
			placer: func() sim.Placer { return core.NewPMFirst(binned64) },
		},
		{
			name:   "synergy-sparse/srtf/pm-first",
			trace:  trace.Synergy(synParams),
			nodes:  16,
			sched:  sched.SRTF{},
			placer: func() sim.Placer { return core.NewPMFirst(binned64) },
		},
	}
}

// settles reports whether the case's placer may settle (see
// sim.DeterministicPlacer), so its placement rounds depend on the
// stepping regime.
func (c ffCase) settles() bool {
	dp, ok := c.placer().(sim.DeterministicPlacer)
	return ok && dp.Deterministic()
}

// checkPlaceCounts compares the PlaceTimes counts of a run that cannot
// skip a settled placement (ref: the naive loop, or a decision sink
// attached) and one that may (got). Sticky and RNG placers place in the
// same rounds under every regime, so the counts match exactly. When got
// can settle, its count depends on the stepping regime by design and may
// only be smaller.
func checkPlaceCounts(t *testing.T, canSettle bool, refLabel, gotLabel string, ref, got *sim.Result) {
	t.Helper()
	n, m := len(ref.PlaceTimes), len(got.PlaceTimes)
	if canSettle && m > n || !canSettle && m != n {
		t.Errorf("PlaceTimes count: %s %d, %s %d", refLabel, n, gotLabel, m)
	}
}

// checkPlaceCalls pins PlaceTimes to one entry per PlaceRound call the
// run's counters saw.
func checkPlaceCalls(t *testing.T, res *sim.Result, ctr *sim.Counters) {
	t.Helper()
	if int64(len(res.PlaceTimes)) != ctr.PlaceCalls {
		t.Errorf("PlaceTimes count %d, counters saw %d PlaceRound calls",
			len(res.PlaceTimes), ctr.PlaceCalls)
	}
}

func (c ffCase) config(t *testing.T, disableFF bool) sim.Config {
	t.Helper()
	topo := clusterTopology(c.nodes)
	profile := vprof.GenerateLonghorn(topo.Size(), 0x9A1)
	return sim.Config{
		Topology:            topo,
		Trace:               c.trace,
		Sched:               c.sched,
		Placer:              c.placer(),
		TrueProfile:         profile,
		Lacross:             1.5,
		MigrationPenaltySec: 10,
		DisableFastForward:  disableFF,
	}
}

func TestFastForwardByteIdentical(t *testing.T) {
	for _, c := range ffCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			naive, err := sim.Run(c.config(t, true))
			if err != nil {
				t.Fatal(err)
			}
			fastCfg := c.config(t, false)
			fastCfg.Counters = &sim.Counters{}
			fast, err := sim.Run(fastCfg)
			if err != nil {
				t.Fatal(err)
			}
			checkPlaceCounts(t, c.settles(), "naive", "fast-forward", naive, fast)
			checkPlaceCalls(t, fast, fastCfg.Counters)
			// Wall-clock values are the one legitimately nondeterministic
			// field; blank them before the exact comparison.
			naive.PlaceTimes, fast.PlaceTimes = nil, nil
			if !reflect.DeepEqual(naive, fast) {
				report := func(label string, r *sim.Result) {
					t.Logf("%s: rounds=%d makespan=%v util=%v",
						label, r.Rounds, r.Makespan, r.Utilization)
				}
				report("naive", naive)
				report("fast ", fast)
				for i := range naive.Jobs {
					if !reflect.DeepEqual(naive.Jobs[i], fast.Jobs[i]) {
						t.Errorf("job %d diverged:\n  naive %+v\n  fast  %+v",
							i, *naive.Jobs[i], *fast.Jobs[i])
						break
					}
				}
				t.Fatal("fast-forward result not byte-identical to naive loop")
			}
		})
	}
}

// TestFastForwardActuallyEngages guards the bench claim: on a sparse
// sticky-placement run the engine must reach the fast path (if the
// eligibility gate silently never opened, the equivalence test above
// would pass vacuously).
func TestFastForwardActuallyEngages(t *testing.T) {
	// One long single-GPU job and a far-future second job: almost every
	// round is a pure progress round.
	tr := &trace.Trace{Name: "sparse", Jobs: []trace.JobSpec{
		{ID: 0, Arrival: 0, Demand: 1, Work: 3e5},
		{ID: 1, Arrival: 2.9e5, Demand: 1, Work: 600},
	}}
	cfg := sim.Config{
		Topology:    clusterTopology(2),
		Trace:       tr,
		Sched:       sched.FIFO{},
		Placer:      place.NewPacked(true, 1),
		TrueProfile: vprof.GenerateLonghorn(8, 1),
		Lacross:     1.5,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ~1000 rounds of progress; with fast-forward engaged the placer is
	// consulted only when jobs actually need GPUs (twice).
	if len(res.PlaceTimes) > 4 {
		t.Errorf("placement called %d times on a 2-placement sparse trace; fast-forward not engaging",
			len(res.PlaceTimes))
	}
	if res.Rounds < 1000 {
		t.Errorf("rounds = %d, want >= 1000 (progress rounds must still be counted)", res.Rounds)
	}
}

// TestSettledPlacementActuallyEngages guards the settled-placement fast
// path for the paper's own policies: PAL and PM-First are non-sticky, so
// the engine may skip their placement and bulk advance only after a
// placement round that kept every allocation. If that gate never opened,
// the byte-identity suites would pass vacuously; if it opened where the
// fixpoint argument does not hold, they would be the only guard. This
// pins both sides.
func TestSettledPlacementActuallyEngages(t *testing.T) {
	cases := map[string]ffCase{}
	for _, c := range ffCases(t) {
		cases[c.name] = c
	}
	run := func(t *testing.T, cfg sim.Config) *sim.Counters {
		t.Helper()
		cfg.Counters = &sim.Counters{}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkPlaceCalls(t, res, cfg.Counters)
		return cfg.Counters
	}

	for _, name := range []string{"sia1/fifo/pal", "sia5/las/pm-first"} {
		t.Run(name, func(t *testing.T) {
			ctr := run(t, cases[name].config(t, false))
			if ctr.PlacementsSkipped == 0 || ctr.BulkRounds() == 0 {
				t.Errorf("settled placement never engaged: %s", ctr.Summary())
			}
		})
	}

	binned := vprof.BinProfile(vprof.GenerateLonghorn(64, 0x9A1))
	never := map[string]func() sim.Config{
		// Plain non-sticky picks depend on the processing order.
		"pm-first/no-hysteresis": func() sim.Config {
			cfg := cases["sia5/las/pm-first"].config(t, false)
			p := core.NewPMFirst(binned)
			p.NoHysteresis = true
			cfg.Placer = p
			return cfg
		},
		// The online scorer learns between rounds, through the Observer.
		"pal/online-scorer+observer": func() sim.Config {
			cfg := cases["sia1/fifo/pal"].config(t, false)
			online := core.NewOnlineScorer(binned)
			cfg.Placer = core.NewPAL(online, 1.5, nil)
			cfg.Observer = online
			return cfg
		},
		// The naive loop records every round's placements.
		"pal/decision-sink": func() sim.Config {
			cfg := cases["sia1/fifo/pal"].config(t, false)
			cfg.Decisions = recorderFor(t, "pal")
			return cfg
		},
	}
	for name, mk := range never {
		t.Run(name, func(t *testing.T) {
			if ctr := run(t, mk()); ctr.PlacementsSkipped != 0 {
				t.Errorf("placement skipped %d times; want 0 (%s)", ctr.PlacementsSkipped, ctr.Summary())
			}
		})
	}
}
