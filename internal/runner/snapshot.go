package runner

import "repro/internal/sim"

// SnapshotBackend is the persistent tier behind a SnapshotCache: a
// durable, cross-process store of engine snapshots (internal/store is
// the implementation; the interface lives here so the dependency arrow
// keeps pointing downward, exactly like Backend for results). Get
// returns (snapshot, found, error); a lookup error is NOT a miss — the
// cache degrades to capturing. Implementations must be safe for
// concurrent use; snapshots handed over are shared and read-only.
type SnapshotBackend interface {
	GetSnapshot(key string) (*sim.Snapshot, bool, error)
	PutSnapshot(key string, snap *sim.Snapshot) error
}

// SnapshotCache deduplicates prefix captures across the cells of a
// sweep: all cells sharing one prefix key (scenario.Built.PrefixKey)
// get one capture — concurrent callers wait on the single in-flight
// computation — and, with a backend attached, captures persist across
// processes. Snapshots are never evicted within a process: a sweep
// touches one snapshot per prefix group and groups are few; the
// persistent tier is bounded by the store's GC like any other object.
//
// The lookup policy is ResultCache's (tier.go): a backend failure never
// fails a caller — lookups degrade to capturing, write-throughs are
// dropped, both are counted in Stats().StoreErrors — and
// backendErrorLimit consecutive failures detach the backend.
type SnapshotCache struct {
	t *tiers[sim.Snapshot]
}

// snapshotBackend adapts a SnapshotBackend to the tier interface.
type snapshotBackend struct{ SnapshotBackend }

func (b snapshotBackend) Get(key string) (*sim.Snapshot, bool, error) {
	return b.GetSnapshot(key)
}

func (b snapshotBackend) Put(key string, snap *sim.Snapshot) error {
	return b.PutSnapshot(key, snap)
}

// SnapshotCacheStats is a snapshot of the cache's counters.
type SnapshotCacheStats struct {
	// Captured counts prefixes this process actually simulated. Hits
	// counts callers served from memory or another caller's in-flight
	// capture; StoreHits counts lookups satisfied by the backend.
	Captured, Hits, StoreHits int64
	// Stored counts snapshots written through to the backend;
	// StoreErrors counts backend failures the cache degraded around.
	Stored, StoreErrors int64
}

// NewSnapshotCache returns a snapshot cache; backend may be nil for a
// memory-only cache.
func NewSnapshotCache(backend SnapshotBackend) *SnapshotCache {
	c := &SnapshotCache{t: newTiers[sim.Snapshot](0)}
	if backend != nil {
		c.t.setBackend(snapshotBackend{backend})
	}
	return c
}

// BackendDetached reports whether the circuit breaker dropped the
// backend: later captures were not persisted.
func (c *SnapshotCache) BackendDetached() bool { return c.t.detached() }

// Stats returns the cache's counters.
func (c *SnapshotCache) Stats() SnapshotCacheStats {
	n, _ := c.t.counts()
	return SnapshotCacheStats{
		Captured:    n.computed,
		Hits:        n.hits,
		StoreHits:   n.storeHits,
		Stored:      n.stored,
		StoreErrors: n.storeErrors,
	}
}

// GetOrCapture returns the snapshot for key — from memory, another
// caller's in-flight capture, or the backend — or runs capture exactly
// once across concurrent callers and caches (and writes through) the
// outcome. fromCache reports that this call did NOT perform the
// capture: the caller resumed shared work, which is what the pool
// surfaces as a snapshot fork. Errors from capture propagate to every
// waiter but are never cached, so a failed capture can be retried.
func (c *SnapshotCache) GetOrCapture(key string, capture func() (*sim.Snapshot, error)) (snap *sim.Snapshot, fromCache bool, err error) {
	snap, src, err := c.t.do(key, capture)
	return snap, src != tierComputed, err
}
