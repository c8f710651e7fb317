package runner

import (
	"sync"

	"repro/internal/sim"
)

// DefaultCacheCapacity bounds the result cache when the caller does not
// choose a size. 512 comfortably covers a full paper-scale regeneration
// (the complete evaluation is a few hundred distinct simulations) while
// keeping the worst case around a few hundred MB of retained results.
const DefaultCacheCapacity = 512

// Backend is a second cache tier behind the in-memory LRU: a durable,
// cross-process result store (internal/store is the implementation; the
// interface lives here so the dependency arrow keeps pointing downward).
// Get returns (result, found, error); a lookup error is NOT a miss —
// the cache degrades to computing, counting the failure in its stats.
// Put persists a freshly computed result. Implementations must be safe
// for concurrent use; values handed over are shared and read-only.
type Backend interface {
	Get(key string) (*sim.Result, bool, error)
	Put(key string, res *sim.Result) error
}

// ResultCache is a content-addressed store of simulation results with
// LRU eviction and single-flight deduplication: concurrent requests for
// the same key run the computation once and share the outcome. It
// replaces the ad-hoc sync.Map caches the experiments layer used to
// keep, which never evicted and were keyed on name strings rather than
// the full run configuration.
//
// With a Backend attached (SetBackend), the cache becomes two-tiered:
// the in-memory LRU is tier 1, the backend tier 2. The policy — memory,
// in-flight, backend, compute, write-through, circuit breaker — is the
// one SnapshotCache runs too (tier.go).
//
// Cached values are shared between callers and must be treated as
// read-only; every consumer in this repository only reads results.
type ResultCache struct {
	t *tiers[sim.Result]
}

// NewResultCache returns a cache holding at most capacity results.
// capacity <= 0 selects DefaultCacheCapacity.
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &ResultCache{t: newTiers[sim.Result](capacity)}
}

// SetBackend attaches (or, with nil, detaches) the durable second tier.
// Call it before handing the cache to a pool; swapping backends while
// lookups are in flight routes each lookup through whichever backend it
// observed first.
func (c *ResultCache) SetBackend(b Backend) { c.t.setBackend(b) }

// BackendDetached reports whether a previously attached backend was
// dropped by the consecutive-failure circuit breaker: the cache is now
// memory-only and fresh results are no longer persisted. CLIs surface
// this as an explicit degradation warning instead of failing sweeps.
func (c *ResultCache) BackendDetached() bool { return c.t.detached() }

// CacheStats is a snapshot of the cache's counters, split by tier.
type CacheStats struct {
	// Hits counts memory-tier hits, including callers that waited on
	// another caller's in-flight computation. Misses counts lookups both
	// tiers missed — i.e. computations that actually ran.
	Hits, Misses int64
	// StoreHits counts lookups satisfied by the backend tier; Stored
	// counts results written through to it; StoreErrors counts backend
	// failures the cache degraded around (computing instead of loading,
	// or skipping the write-through).
	StoreHits, Stored, StoreErrors int64
	Entries                        int
}

// Stats returns the cache's counters.
func (c *ResultCache) Stats() CacheStats {
	n, entries := c.t.counts()
	return CacheStats{
		Hits:        n.hits,
		Misses:      n.computed,
		StoreHits:   n.storeHits,
		Stored:      n.stored,
		StoreErrors: n.storeErrors,
		Entries:     entries,
	}
}

// Len returns the number of cached results.
func (c *ResultCache) Len() int {
	_, entries := c.t.counts()
	return entries
}

// Do returns the cached result for key — from the memory tier, another
// caller's in-flight lookup, or the backend tier — or runs compute
// exactly once across concurrent callers and caches (and writes
// through) a successful outcome. The second return reports whether the
// value came from either cache tier or another caller's in-flight
// computation (a "hit" in the dedup sense); it is false only when this
// call actually computed. Errors from compute are propagated to every
// waiter but never cached, so a failed computation can be retried.
// Backend failures never fail the lookup: a broken store degrades the
// cache to memory-only and is counted in Stats().StoreErrors.
func (c *ResultCache) Do(key string, compute func() (*sim.Result, error)) (*sim.Result, bool, error) {
	res, src, err := c.t.do(key, compute)
	return res, src != tierComputed, err
}

// Get returns the cached result for key without computing anything.
func (c *ResultCache) Get(key string) (*sim.Result, bool) { return c.t.get(key) }

// Memo is a small generic single-flight memoization table for values
// that are expensive to build but few in number (profiles, binned
// profiles). Unlike ResultCache it never evicts — callers use it for
// key spaces they know are bounded. The zero value is ready to use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	mu   sync.Mutex
	done bool
	v    V
}

// Get returns the memoized value for key, computing it at most once even
// under concurrent access. A panicking compute propagates to its caller
// and leaves the entry uncomputed (not poisoned with a zero value), so
// the next Get retries.
func (m *Memo[K, V]) Get(key K, compute func() V) V {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	e, ok := m.m[key]
	if !ok {
		e = &memoEntry[V]{}
		m.m[key] = e
	}
	m.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.v = compute()
		e.done = true
	}
	return e.v
}

// Len returns the number of memoized keys.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
