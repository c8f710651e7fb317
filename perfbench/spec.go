package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
)

// The four workloads share one cell set: the Synergy configuration of
// the paper's Figs. 14, 16-17 and 20 (64 nodes x 4 GPUs = 256 GPUs, the
// longhorn variability profile, 2000 jobs at 12 jobs/hour, L_across
// 1.7) over the four placers the paper compares and the three
// schedulers it runs them under. PAL and PM-First spend most of their
// time in the materialized engine regime, the sticky baselines in the
// fast paths, so the grid covers both sides of the engine's regime
// gate.
var (
	gridPolicies = []string{"pal", "pm-first", "packed-sticky", "random-sticky"}
	gridScheds   = []string{"fifo", "las", "srtf"}
)

const (
	synergyNodes   = 64
	synergyJobs    = 2000
	synergyLoad    = 12
	synergyLacross = 1.7
	// forkHorizon is the fork-write warmup horizon: about two thirds of
	// the pal/fifo run, so the shared prefix dominates each cell.
	forkHorizon = 3000
	// defaultSeed is the workload seed whose outputs reference.json
	// pins by digest.
	defaultSeed = 1
)

// workload names, in the order BENCHMARK.json lists them.
const (
	coldEngine = "cold-engine"
	forkWrite  = "fork-write"
	warmRead   = "warm-read"
	reproQuick = "repro-quick"
)

var workloads = []string{coldEngine, forkWrite, warmRead, reproQuick}

// mix is splitmix64: every seed the specs carry derives from the
// workload seed through it, so neighbouring workload seeds give
// unrelated traces, profiles and tie-breaking streams.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// derivedSeed returns the i-th seed drawn from the workload seed,
// folded to 32 bits (readable in cell names) and never 0, which the
// scenario layer would replace by its default.
func derivedSeed(workloadSeed uint64, i int) uint64 {
	return mix(workloadSeed*16+uint64(i))&0xFFFFFFFF | 1
}

// gridSpec builds the shared Synergy grid spec. Seeds vary the root
// seed (workload trace and placer streams); the profile seed draws the
// 256 GPUs from the longhorn cluster.
func gridSpec(name string, workloadSeed uint64, seeds int) *scenario.Spec {
	s := &scenario.Spec{
		Name:     name,
		Cluster:  scenario.ClusterSpec{Nodes: synergyNodes, GPUsPerNode: 4},
		Profile:  scenario.ProfileSpec{Source: "longhorn", Seed: derivedSeed(workloadSeed, 0)},
		Workload: scenario.WorkloadSpec{Source: "synergy", NumJobs: synergyJobs, JobsPerHour: synergyLoad},
		Locality: scenario.LocalitySpec{Lacross: synergyLacross},
		Grid:     &scenario.GridSpec{Policies: gridPolicies, Scheds: gridScheds},
	}
	for i := 1; i <= seeds; i++ {
		s.Grid.Seeds = append(s.Grid.Seeds, derivedSeed(workloadSeed, i))
	}
	return s
}

// coldSpec is the cold-engine grid: 12 cells, no telemetry, no fork.
func coldSpec(workloadSeed uint64) *scenario.Spec {
	return gridSpec(coldEngine, workloadSeed, 1)
}

// forkSpec is the fork-write / warm-read grid: the 12 cells over two
// seeds with telemetry on, every cell forking from a pal/fifo warmup
// captured at forkHorizon (one capture per seed; the other 22 cells
// fork from those captures).
func forkSpec(workloadSeed uint64) *scenario.Spec {
	s := gridSpec(forkWrite, workloadSeed, 2)
	s.Metrics = scenario.MetricsSpec{Enabled: true}
	s.Fork = &scenario.ForkSpec{Rounds: forkHorizon, Policy: "pal", Sched: "fifo"}
	return s
}

// specFor returns the spec a scenario workload sweeps (nil for
// repro-quick, which runs the registered experiments).
func specFor(workload string, workloadSeed uint64) *scenario.Spec {
	switch workload {
	case coldEngine:
		return coldSpec(workloadSeed)
	case forkWrite, warmRead:
		return forkSpec(workloadSeed)
	}
	return nil
}

// specJSON renders a spec as the file handed to palsweep.
func specJSON(s *scenario.Spec) ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render spec %s: %w", s.Name, err)
	}
	return append(data, '\n'), nil
}
