package runner

import (
	"fmt"
	"io"
	"strings"
)

// CacheSummary renders a run's cache effectiveness: simulations
// actually executed versus results served from each cache tier, and how
// many were persisted to the store. A warm-started run over an
// unchanged configuration reads "0 simulated" — the signal CI's store
// smoke tests check for. Snapshot forks — cells resumed from a shared
// warmup capture instead of simulated from scratch — are broken out
// separately, so "simulated" always counts full from-scratch runs.
// palsweep and palsim both print it.
func CacheSummary(pool *Pool) string {
	st := pool.Stats()
	s := fmt.Sprintf("%d simulated", st.Executed-st.SnapshotForks)
	if st.SnapshotForks > 0 {
		s += fmt.Sprintf(", %d snapshot forks", st.SnapshotForks)
	}
	if pool.cache == nil {
		return s
	}
	cs := pool.cache.Stats()
	s += fmt.Sprintf(", %d cache hits (%d memory, %d store)", cs.Hits+cs.StoreHits, cs.Hits, cs.StoreHits)
	if cs.Stored > 0 {
		s += fmt.Sprintf(", %d stored", cs.Stored)
	}
	if cs.StoreErrors > 0 {
		s += fmt.Sprintf(", %d store errors", cs.StoreErrors)
	}
	return s
}

// WarnStore writes "<cmd>: WARNING: ..." to w when the persistent store
// degraded during the run: backend failures either cache tier — the
// pool's result cache or snaps (nil when unused) — degraded around, and
// whether a circuit breaker detached the store entirely (values
// computed after that point were not persisted). It writes nothing
// when both tiers stayed healthy. CLIs print it even when quiet:
// silently losing persistence is worse than a noisy line.
func WarnStore(w io.Writer, cmd string, pool *Pool, snaps *SnapshotCache) {
	var errs int64
	var lost []string
	if c := pool.cache; c != nil {
		errs += c.Stats().StoreErrors
		if c.BackendDetached() {
			lost = append(lost, "results")
		}
	}
	if snaps != nil {
		errs += snaps.Stats().StoreErrors
		if snaps.t.detached() {
			lost = append(lost, "snapshots")
		}
	}
	if errs == 0 && len(lost) == 0 {
		return
	}
	msg := fmt.Sprintf("%s: WARNING: persistent store degraded: %d backend errors", cmd, errs)
	if len(lost) > 0 {
		msg += fmt.Sprintf("; store detached after repeated failures, later %s were not persisted", strings.Join(lost, " and "))
	}
	fmt.Fprintln(w, msg)
}
