package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// reference pins the outputs of the default seed: per workload, the
// digest of the whole deterministic output, of each unit (grid cell or
// experiment table), and the runner counts of a timed sample; plus the
// runner counts of the traced run, which must repeat exactly.
type reference struct {
	Seed        uint64                 `json:"seed"`
	Workloads   map[string]workloadRef `json:"workloads"`
	TraceCounts map[string]float64     `json:"trace_counts"`
}

type workloadRef struct {
	Digest string            `json:"digest"`
	Units  map[string]string `json:"units"`
	Counts sweepCounts       `json:"counts"`
}

//go:embed reference.json
var referenceJSON []byte

const referencePath = "perfbench/reference.json"

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", referencePath, err)
	}
	if ref.Seed != defaultSeed {
		return nil, fmt.Errorf("%s pins seed %d, the default seed is %d (re-record)", referencePath, ref.Seed, defaultSeed)
	}
	return &ref, nil
}

// pinned returns the reference of a workload when the run's seed is the
// pinned one, else nil.
func (r *reference) pinned(workload string, seed uint64) *workloadRef {
	if r == nil || seed != r.Seed {
		return nil
	}
	if w, ok := r.Workloads[workload]; ok {
		return &w
	}
	return nil
}

// recordReference re-pins reference.json: it runs every workload and the
// traced run on the default seed with no pinned reference (each output
// is still checked against its own set-up reference sweep) and writes
// what they produced. Use it only for a deliberate change of the
// programs' outputs.
func recordReference() error {
	ref := &reference{Seed: defaultSeed, Workloads: map[string]workloadRef{}}
	for _, w := range workloads {
		res, observed, err := measureObserved(w, defaultSeed, 0, nil)
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: outputs failed their own checks; not recording", w)
		}
		ref.Workloads[w] = *observed
	}
	counts, err := traceCounts(defaultSeed)
	if err != nil {
		return err
	}
	ref.TraceCounts = counts
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.FromSlash(referencePath), append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("recorded %s\n", referencePath)
	return nil
}
