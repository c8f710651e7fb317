package experiments_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestRunSpecMatchesScenarioTwin pins the two configuration layers to
// one lowering: a Synergy 256-GPU cell described as an experiments
// RunSpec and the same cell written as a scenario spec must produce
// byte-identical archived results. PAL and PM-First draw no RNG, so
// the layers' different placer-seed derivations cannot matter; every
// other input — trace, profile scores, locality, window, migration
// default — must agree exactly.
func TestRunSpecMatchesScenarioTwin(t *testing.T) {
	scheds := map[string]sim.Scheduler{
		"fifo": experiments.FIFOSched,
		"las":  experiments.LASSched,
		"srtf": experiments.SRTFSched,
	}
	for _, pol := range []experiments.Policy{experiments.PALPolicy, experiments.PMFirst} {
		for _, schedName := range []string{"fifo", "las", "srtf"} {
			name := pol.RegistryName() + "/" + schedName
			t.Run(name, func(t *testing.T) {
				res, err := experiments.Run(experiments.RunSpec{
					Trace:        experiments.SynergyTrace(12, 500),
					Topo:         experiments.SynergyTopology(),
					Sched:        scheds[schedName],
					Policy:       pol,
					Profile:      experiments.LonghornProfile(experiments.SynergyTopology().Size()),
					Lacross:      experiments.SynergyLacross,
					Seed:         experiments.ExperimentSeed,
					MeasureFirst: 200,
					MeasureLast:  400,
				})
				if err != nil {
					t.Fatal(err)
				}
				spec, err := scenario.Parse([]byte(fmt.Sprintf(`{
					"name": "twin",
					"cluster": {"nodes": 64, "gpus_per_node": 4},
					"workload": {"source": "synergy", "jobs_per_hour": 12, "num_jobs": 500},
					"policy": {"name": %q},
					"sched": {"name": %q},
					"locality": {"lacross": 1.7},
					"engine": {"measure_first": 200, "measure_last": 400}
				}`, pol.RegistryName(), schedName)))
				if err != nil {
					t.Fatal(err)
				}
				built, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				twin, err := built.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := encode(t, twin), encode(t, res); !bytes.Equal(got, want) {
					t.Errorf("scenario twin diverged from the RunSpec (%d vs %d archived bytes)", len(got), len(want))
				}
			})
		}
	}
}

// encode archives a result with the wall-clock placement timings
// dropped: the byte-identity comparison form.
func encode(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	res.PlaceTimes = nil
	var buf bytes.Buffer
	if err := export.EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
