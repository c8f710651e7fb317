package export

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Canonical snapshot codec: the deterministic binary round-trip of a
// *sim.Snapshot the artifact store persists beside results, in the
// layout codec.go defines. Same contract as the result codec: encoding
// the same snapshot twice produces identical bytes, every field
// round-trips exactly, nil and empty slices stay distinct, the policy
// and sink state blobs are carried as raw bytes, and a format tag names
// the codec revision so a snapshot written by a different codec fails
// loudly.
//
// Like ResultFormatVersion, SnapshotFormatVersion is part of the
// store's on-disk layout (the snapshot sub-tree's path component) and
// NOT part of any simulation cache key: bumping it orphans persisted
// snapshots without perturbing scenario/runspec keys or their golden
// tests.

// SnapshotFormatVersion names the snapshot-codec revision.
// v2 dropped the legacy util_series and events arrays from the
// snapshot body (the sinks' marshaled state carries the prefix's
// observations); v3 replaced the indented JSON archive with the binary
// layout of codec.go.
const SnapshotFormatVersion = "v3"

// snapshotFormat is the full format tag embedded in every archive.
const snapshotFormat = "pal-snapshot/" + SnapshotFormatVersion

// EncodeSnapshot writes snap as a deterministic, versioned binary
// archive.
func EncodeSnapshot(w io.Writer, snap *sim.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("export: nil snapshot")
	}
	e := newEncoder(snapshotFormat)
	defer e.done()
	e.bool(snap.Completed)
	e.int(snap.Rounds)
	e.float(snap.Now)
	e.float(snap.RoundSec)
	e.int(snap.Topology.NumNodes)
	e.int(snap.Topology.GPUsPerNode)
	e.int(snap.Topology.NodesPerRack)
	e.int(snap.NextArrival)
	putSlice(e, snap.Jobs, putJob)
	e.str(snap.SchedName)
	e.str(snap.PlacerName)
	e.blob(snap.SchedState)
	e.blob(snap.PlacerState)
	e.blob(snap.MetricsState)
	e.blob(snap.DecisionsState)
	if _, err := w.Write(e.buf); err != nil {
		return fmt.Errorf("export: encode snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshot reads an archive written by EncodeSnapshot. Any
// format revision other than the current one, a truncated or corrupt
// body and trailing bytes are rejected.
func DecodeSnapshot(r io.Reader) (*sim.Snapshot, error) {
	d, err := readArchive(r, snapshotFormat, "snapshot")
	if err != nil {
		return nil, err
	}
	snap := &sim.Snapshot{}
	snap.Completed = d.bool()
	snap.Rounds = d.int()
	snap.Now = d.float()
	snap.RoundSec = d.float()
	snap.Topology.NumNodes = d.int()
	snap.Topology.GPUsPerNode = d.int()
	snap.Topology.NodesPerRack = d.int()
	snap.NextArrival = d.int()
	snap.Jobs = getSlice(d, getJob)
	snap.SchedName = d.str()
	snap.PlacerName = d.str()
	snap.SchedState = d.blob()
	snap.PlacerState = d.blob()
	snap.MetricsState = d.blob()
	snap.DecisionsState = d.blob()
	if err := d.finish("snapshot"); err != nil {
		return nil, err
	}
	return snap, nil
}
