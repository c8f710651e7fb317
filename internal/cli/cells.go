package cli

import "repro/internal/scenario"

// Cell is one expanded grid cell: the built scenario and the spec file
// it came from.
type Cell struct {
	Built *scenario.Built
	Path  string
}

// LoadCells loads every spec file, force-enables the recording blocks
// the flags ask for, expands grid specs into their cells, and builds
// each cell, in path then expansion order. The forced enables happen
// before expansion, so grid cells normalize the enabled blocks — and
// cache-key — exactly like single-cell specs that asked for recording
// themselves.
func LoadCells(paths []string, forceMetrics, forceDecisions bool) ([]Cell, error) {
	var cells []Cell
	for _, path := range paths {
		spec, err := scenario.LoadFile(path)
		if err != nil {
			return nil, err
		}
		if forceMetrics {
			spec.Metrics.Enabled = true
		}
		if forceDecisions {
			spec.Decisions.Enabled = true
		}
		if forceMetrics || forceDecisions {
			spec.Normalize()
		}
		expanded, err := spec.ExpandGrid()
		if err != nil {
			return nil, err
		}
		for _, c := range expanded {
			built, err := c.Build()
			if err != nil {
				return nil, err
			}
			cells = append(cells, Cell{Built: built, Path: path})
		}
	}
	return cells, nil
}
