package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Canonical snapshot codec: the deterministic JSON round-trip of a
// *sim.Snapshot the artifact store persists beside results. Same
// contract as the result codec: encoding the same snapshot twice
// produces identical bytes, every field round-trips exactly (floats use
// Go's shortest-round-trip encoding), nil and empty slices are
// preserved as written, and a format tag names the codec revision so a
// snapshot written by a different codec fails loudly.
//
// Like ResultFormatVersion, SnapshotFormatVersion is part of the
// store's on-disk layout (the snapshot sub-tree's path component) and
// NOT part of any simulation cache key: bumping it orphans persisted
// snapshots without perturbing scenario/runspec keys or their golden
// tests.

// SnapshotFormatVersion names the snapshot-codec revision.
// v2 dropped the legacy util_series and events arrays from the
// snapshot body (the sinks' marshaled state carries the prefix's
// observations).
const SnapshotFormatVersion = "v2"

// snapshotFormat is the full format tag embedded in every archive.
const snapshotFormat = "pal-snapshot/" + SnapshotFormatVersion

// snapshotArchive wraps a snapshot with the codec's format tag. The
// snapshot itself is already plain, JSON-tagged data (sim.Snapshot is
// designed as an archival type), so the codec adds only versioning.
type snapshotArchive struct {
	Format   string        `json:"format"`
	Snapshot *sim.Snapshot `json:"snapshot"`
}

// EncodeSnapshot writes snap as a deterministic, versioned JSON archive.
func EncodeSnapshot(w io.Writer, snap *sim.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("export: nil snapshot")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(&snapshotArchive{Format: snapshotFormat, Snapshot: snap}); err != nil {
		return fmt.Errorf("export: encode snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshot reads an archive written by EncodeSnapshot. Unknown
// fields and any format revision other than the current one are
// rejected.
func DecodeSnapshot(r io.Reader) (*sim.Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("export: read snapshot archive: %w", err)
	}
	var probe struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("export: decode snapshot archive: %w", err)
	}
	if probe.Format != snapshotFormat {
		return nil, fmt.Errorf("export: snapshot archive format %q, want %q (codec version mismatch)", probe.Format, snapshotFormat)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var arch snapshotArchive
	if err := dec.Decode(&arch); err != nil {
		return nil, fmt.Errorf("export: decode snapshot archive: %w", err)
	}
	if arch.Snapshot == nil {
		return nil, fmt.Errorf("export: snapshot archive has no snapshot body")
	}
	return arch.Snapshot, nil
}
