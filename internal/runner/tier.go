package runner

import (
	"container/list"
	"fmt"
	"sync"
)

// tiers is the one two-tier cache policy behind ResultCache and
// SnapshotCache. A lookup tries, in order: the memory tier (an LRU
// map), another caller's in-flight computation of the same key
// (single-flight), the backend tier, and finally the computation
// itself, whose successful outcome enters memory and is written
// through to the backend. Single-flight spans both tiers: concurrent
// callers for one key share a single backend lookup and at most one
// computation.
//
// Backend failures never fail a lookup: a failed Get degrades to
// computing, a failed Put skips the write-through, both are counted,
// and backendErrorLimit consecutive failures detach the backend for
// the cache's lifetime, so a hung store costs a bounded number of I/O
// timeouts before the cache is truly memory-only.
//
// Values are shared between callers and must be treated as read-only.
type tiers[T any] struct {
	mu sync.Mutex
	// capacity bounds the memory tier; 0 means unbounded.
	capacity int
	ll       *list.List               // front = most recently used
	entries  map[string]*list.Element // key -> element holding *tierEntry[T]
	inflight map[string]*flight[T]
	backend  tierBackend[T]
	// hadBackend remembers that a non-nil backend was attached, so
	// detached can tell "never had a store" from "the circuit breaker
	// dropped it".
	hadBackend bool
	// errorStreak counts consecutive backend failures; any success
	// resets it.
	errorStreak int
	n           tierCounts
}

// backendErrorLimit is the consecutive-failure count at which the
// backend is detached.
const backendErrorLimit = 5

// tierBackend is the durable tier behind a tiers: Get returns (value,
// found, error) — an error is NOT a miss — and Put persists a fresh
// value. Backend satisfies it for results; snapshotBackend adapts
// SnapshotBackend.
type tierBackend[T any] interface {
	Get(key string) (*T, bool, error)
	Put(key string, v *T) error
}

// tierCounts are a tiers' lifetime counters; ResultCache and
// SnapshotCache publish them under their own field names.
type tierCounts struct {
	hits        int64 // memory-tier hits, including in-flight dedup
	computed    int64 // both tiers missed: the computation ran
	storeHits   int64 // memory missed, backend hit
	stored      int64 // values written through to the backend
	storeErrors int64 // backend Get/Put failures degraded around
}

// tierEntry is the LRU list payload.
type tierEntry[T any] struct {
	key string
	v   *T
}

// flight tracks one in-progress lookup so duplicate keys wait for it
// instead of recomputing.
type flight[T any] struct {
	done chan struct{}
	v    *T
	err  error
}

// newTiers returns an empty cache; capacity 0 leaves the memory tier
// unbounded.
func newTiers[T any](capacity int) *tiers[T] {
	return &tiers[T]{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight[T]),
	}
}

// tier names which layer satisfied a cache lookup; the pool translates
// it into the probe's TaskOutcome and the per-tier hit counters.
type tier uint8

const (
	tierComputed tier = iota // both tiers missed: compute ran
	tierMemory               // memory LRU or another caller's in-flight computation
	tierStore                // backend (persistent store) tier
)

// setBackend attaches (or, with nil, detaches) the durable tier.
func (t *tiers[T]) setBackend(b tierBackend[T]) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.backend = b
	t.hadBackend = b != nil
}

// do returns the value for key from the first tier that holds it, or
// runs compute exactly once across concurrent callers and caches (and
// writes through) a successful non-nil outcome, reporting the tier
// that satisfied the lookup. Errors from compute propagate to every
// waiter but are never cached, so a failed computation can be retried.
// This is the only implementation of the lookup sequence.
func (t *tiers[T]) do(key string, compute func() (*T, error)) (*T, tier, error) {
	t.mu.Lock()
	if el, ok := t.entries[key]; ok {
		t.ll.MoveToFront(el)
		t.n.hits++
		v := el.Value.(*tierEntry[T]).v
		t.mu.Unlock()
		return v, tierMemory, nil
	}
	if f, ok := t.inflight[key]; ok {
		t.n.hits++
		t.mu.Unlock()
		<-f.done
		return f.v, tierMemory, f.err
	}
	f := &flight[T]{done: make(chan struct{})}
	t.inflight[key] = f
	backend := t.backend
	t.mu.Unlock()

	// The closing of f.done and the inflight cleanup must survive a
	// panicking compute (the pool already converts panics to errors, but
	// the cache should not rely on its callers for its own liveness).
	// When compute never returned, waiters must see an error — not a
	// (nil, nil) outcome they would dereference — while the panic itself
	// keeps propagating to the computing caller.
	returned := false
	defer func() {
		if !returned && f.err == nil {
			f.err = fmt.Errorf("runner: cache computation for key %q panicked", key)
		}
		t.mu.Lock()
		delete(t.inflight, key)
		if f.err == nil && f.v != nil {
			t.add(key, f.v)
		}
		t.mu.Unlock()
		close(f.done)
	}()

	// Backend tier. The flight is already registered, so concurrent
	// callers for this key wait on one disk read, never a stampede.
	if backend != nil {
		v, ok, err := backend.Get(key)
		switch {
		case err != nil:
			t.backendDone(err, nil)
		case ok:
			t.backendDone(nil, &t.n.storeHits)
			f.v = v
			returned = true
			return v, tierStore, nil
		default:
			t.backendDone(nil, nil) // clean miss: the backend is healthy
		}
	}

	t.mu.Lock()
	t.n.computed++
	t.mu.Unlock()
	f.v, f.err = compute()
	returned = true
	if f.err == nil && f.v != nil && backend != nil {
		t.backendDone(backend.Put(key, f.v), &t.n.stored)
	}
	return f.v, tierComputed, f.err
}

// backendDone records one backend call's outcome. A failure is counted
// and extends the streak, detaching the backend at backendErrorLimit; a
// success resets the streak and bumps counter when given.
func (t *tiers[T]) backendDone(err error, counter *int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.n.storeErrors++
		t.errorStreak++
		if t.errorStreak >= backendErrorLimit {
			t.backend = nil
		}
		return
	}
	t.errorStreak = 0
	if counter != nil {
		*counter++
	}
}

// get returns the memory-tier value for key without computing anything.
func (t *tiers[T]) get(key string) (*T, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[key]; ok {
		t.ll.MoveToFront(el)
		t.n.hits++
		return el.Value.(*tierEntry[T]).v, true
	}
	return nil, false
}

// add inserts a value, evicting the least-recently-used entry when a
// bounded memory tier is full. Caller holds t.mu.
func (t *tiers[T]) add(key string, v *T) {
	if el, ok := t.entries[key]; ok {
		el.Value.(*tierEntry[T]).v = v
		t.ll.MoveToFront(el)
		return
	}
	t.entries[key] = t.ll.PushFront(&tierEntry[T]{key: key, v: v})
	for t.capacity > 0 && t.ll.Len() > t.capacity {
		oldest := t.ll.Back()
		t.ll.Remove(oldest)
		delete(t.entries, oldest.Value.(*tierEntry[T]).key)
	}
}

// counts returns the lifetime counters and the memory-tier size.
func (t *tiers[T]) counts() (tierCounts, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n, t.ll.Len()
}

// detached reports whether the circuit breaker dropped a previously
// attached backend.
func (t *tiers[T]) detached() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hadBackend && t.backend == nil
}
