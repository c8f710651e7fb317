package scenario

// The lowering into sim.Config. Both configuration layers — scenario
// specs here and experiments.RunSpec above — resolve their own
// vocabulary (a JSON spec, a figure cell) into the engine's static
// fields, then hand them to Lower, which owns every decision the two
// layers must make identically: the placer built through the registry
// against a memoized binned view, the migration-penalty default, and
// the construction of fresh per-run sinks. The §IV-C profile sampling
// and the content hashers the cache keys fold traces and profiles with
// live here for the same reason: one copy, so the two layers can
// never drift apart.

import (
	"fmt"

	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vprof"
)

// Lower completes cfg, which carries the configuration layer's static
// engine fields, into a runnable sim.Config. The placer named policy is
// built through the placement registry against the binned scoring view
// (the profile the placer consults, possibly stale relative to
// cfg.TrueProfile) and cfg's locality model, drawing from seed. A zero
// cfg.MigrationPenaltySec selects sim.DefaultMigrationPenaltySec and a
// negative one disables the penalty. Non-nil mc and dc attach a fresh
// metrics collector and decision recorder (ClusterGPUs is taken from
// the topology): sinks and placers hold per-run state, so every call
// constructs its own.
func Lower(cfg sim.Config, policy string, seed uint64, view *vprof.Profile, mc *metrics.Config, dc *decision.Config) (sim.Config, error) {
	placer, err := place.Build(policy, place.BuildEnv{
		Scores:       Binned(view),
		Lacross:      cfg.Lacross,
		ModelLacross: cfg.ModelLacross,
		Lrack:        cfg.Lrack,
		Seed:         seed,
	})
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Placer = placer
	switch {
	case cfg.MigrationPenaltySec == 0:
		cfg.MigrationPenaltySec = sim.DefaultMigrationPenaltySec
	case cfg.MigrationPenaltySec < 0:
		cfg.MigrationPenaltySec = 0
	}
	if mc != nil {
		c := *mc
		c.ClusterGPUs = cfg.Topology.Size()
		collector, err := metrics.NewCollector(c)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Metrics = collector
	}
	if dc != nil {
		rec, err := decision.NewRecorder(*dc)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Decisions = rec
	}
	return cfg, nil
}

// binMemo memoizes the silhouette K-Means binning per profile: K
// selection is O(n²) per class, and every run over one profile would
// otherwise repeat it. The single-flight Memo also guarantees that
// concurrent runs over one profile bin it exactly once.
var binMemo runner.Memo[*vprof.Profile, *vprof.Binned]

// Binned returns the memoized binned view of a profile. The result is
// shared and read-only.
func Binned(p *vprof.Profile) *vprof.Binned {
	return binMemo.Get(p, func() *vprof.Binned { return vprof.BinProfile(p) })
}

// ProfileSeed seeds the generated variability profiles: the paper
// figures run on it, and specs default to it, so a scenario over a
// same-sized cluster experiences the exact per-GPU scores the figures
// use. TestbedSeed is the testbed generator's shifted seed (Fig. 8).
const (
	ProfileSeed = 0x9A1
	TestbedSeed = ProfileSeed + 7
)

// fullClusterGPUs is the size of the full generated cluster that
// longhorn/frontera profiles are sampled from (8 cabinets × 13 nodes ×
// 4 GPUs, the paper's Longhorn shape); testbedGPUs is the testbed's.
const (
	fullClusterGPUs = 416
	testbedGPUs     = 64
)

// profileKey identifies one generated profile in profileMemo.
type profileKey struct {
	name, source string
	gpus         int
	seed         uint64
}

// profileMemo caches generated profiles: generation plus subsampling is
// cheap, but runs fanned out over a pool ask repeatedly, profiles are
// immutable, and a shared pointer keeps the per-profile bin and digest
// memos hot.
var profileMemo runner.Memo[profileKey, *vprof.Profile]

// SampledProfile returns a gpus-GPU profile named name, produced the
// way §IV-C describes: generate the full "longhorn" or "frontera"
// cluster's profile from seed, then sample gpus of its GPUs without
// repetition.
func SampledProfile(name, source string, gpus int, seed uint64) (*vprof.Profile, error) {
	generate := vprof.GenerateLonghorn
	switch source {
	case "longhorn":
	case "frontera":
		generate = vprof.GenerateFrontera
	default:
		return nil, fmt.Errorf("%s is not a sampled profile source", source)
	}
	if gpus > fullClusterGPUs {
		return nil, fmt.Errorf("%s profiles cover at most %d GPUs, cluster has %d",
			source, fullClusterGPUs, gpus)
	}
	return profileMemo.Get(profileKey{name, source, gpus, seed}, func() *vprof.Profile {
		full := generate(fullClusterGPUs, seed)
		perm := rng.New(seed).Split(uint64(gpus)).Perm(full.NumGPUs())
		p, err := full.Subsample(name, perm, gpus)
		if err != nil {
			panic(err) // unreachable: gpus is within the full cluster
		}
		return p
	}), nil
}

// TestbedProfile returns the 64-GPU Frontera testbed profile (Fig. 8)
// generated from seed.
func TestbedProfile(seed uint64) *vprof.Profile {
	return profileMemo.Get(profileKey{source: "testbed", seed: seed}, func() *vprof.Profile {
		return vprof.GenerateTestbed(seed)
	})
}

// HashJobs folds job specs into a cache key: the count plus every field
// that reaches the simulation.
func HashJobs(h *runner.Hash, jobs []trace.JobSpec) {
	h.Int(len(jobs))
	for _, j := range jobs {
		h.Int(j.ID)
		h.String(j.Model)
		h.Int(int(j.Class))
		h.Float64(j.Arrival)
		h.Int(j.Demand)
		h.Float64(j.Work)
	}
}

// HashProfile folds a variability profile's full content into a cache
// key: name, shape and every score.
func HashProfile(h *runner.Hash, p *vprof.Profile) {
	h.String(p.Name())
	h.Int(p.NumClasses())
	h.Int(p.NumGPUs())
	for c := 0; c < p.NumClasses(); c++ {
		h.Floats(p.ClassScores(vprof.Class(c)))
	}
}
