// Package cli is the one copy of the plumbing palsim, palsweep,
// palreport and palexplain share: the session a simulating command runs
// through (Open: store, journal probe, cache tiers, journal, profiles;
// Finish), the run-archive writer (WriteArchive) and one-pass reader
// (ReadArchive), and the spec-file → grid-cell loader (LoadCells).
package cli

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/journal"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
)

// Flags are the session-shaping flag values a command parsed: -workers
// and -cache (0 selects the defaults), the -store and -journal
// directories and -shard (recorded in the journal header), the profile
// paths, and whether to open the snapshot tier (forked sweeps).
type Flags struct {
	Workers, CacheCap                             int
	Store, Journal, Shard, CPUProfile, MemProfile string
	Snapshots                                     bool
}

// Session is one command invocation's orchestration: tasks run through
// Pool, whose result cache the store backs, and a Probe-attached journal
// observes them. Engine collects the counters of every engine that
// stepped here. Finish must run on every clean exit; fatal paths skip
// it and leave a summary-less journal, which the reader reports as
// incomplete.
type Session struct {
	Cmd    string
	Pool   *runner.Pool
	Snaps  *runner.SnapshotCache // nil unless Flags.Snapshots
	Engine *sim.Counters

	jw           *journal.Writer       // nil without -journal
	probe        *journal.BackendProbe // nil unless both -store and -journal
	stopProfiles func() error          // nil without profiles
}

// Open starts cmd's session as f asks: the profiles first, so they
// cover the whole run, then the store, the pool and the journal.
func Open(cmd string, f Flags) (_ *Session, err error) {
	stop, err := startProfiles(f.CPUProfile, f.MemProfile)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = stop() // the open failure is the error to report
		}
	}()
	cache := runner.NewResultCache(f.CacheCap)
	s := &Session{Cmd: cmd, Engine: &sim.Counters{}, stopProfiles: stop}
	var snapBackend runner.SnapshotBackend
	if f.Store != "" {
		st, err := store.Open(f.Store)
		if err != nil {
			return nil, err
		}
		snapBackend = st
		var backend runner.Backend = st
		if f.Journal != "" {
			// The probe wraps the store so the journal's summary carries
			// per-op latency/size histograms; the cache (and its circuit
			// breaker) sees the probe as just another backend.
			s.probe = journal.ProbeBackend(st)
			backend = s.probe
		}
		cache.SetBackend(backend)
	}
	s.Pool = runner.NewPool(f.Workers, cache)
	if f.Snapshots {
		s.Snaps = runner.NewSnapshotCache(snapBackend)
	}
	if f.Journal != "" {
		s.jw, err = journal.Create(f.Journal, journal.Header{Role: cmd, Shard: f.Shard, Workers: s.Pool.Workers()})
		if err != nil {
			return nil, err
		}
		s.Pool.SetProbe(s.jw)
	}
	return s, nil
}

// CacheSummary renders the session's cache effectiveness: simulations
// actually executed versus results served from each cache tier, and how
// many were persisted to the store. A warm-started run over an
// unchanged configuration reads "0 simulated" — the signal CI's store
// smoke tests check for. Snapshot forks — cells resumed from a shared
// warmup capture instead of simulated from scratch — are broken out
// separately, so "simulated" always counts full from-scratch runs.
func (s *Session) CacheSummary() string {
	st := s.Pool.Stats()
	out := fmt.Sprintf("%d simulated", st.Executed-st.SnapshotForks)
	if st.SnapshotForks > 0 {
		out += fmt.Sprintf(", %d snapshot forks", st.SnapshotForks)
	}
	cs := s.Pool.Cache().Stats()
	out += fmt.Sprintf(", %d cache hits (%d memory, %d store)", cs.Hits+cs.StoreHits, cs.Hits, cs.StoreHits)
	if cs.Stored > 0 {
		out += fmt.Sprintf(", %d stored", cs.Stored)
	}
	if cs.StoreErrors > 0 {
		out += fmt.Sprintf(", %d store errors", cs.StoreErrors)
	}
	return out
}

// EngineSummary writes the engine counters' summary line to w when an
// engine stepped in this process; results served from a cache tier
// contribute nothing.
func (s *Session) EngineSummary(w io.Writer) {
	if s.Engine.TotalRounds() > 0 {
		fmt.Fprintf(w, "%s: %s\n", s.Cmd, s.Engine.Summary())
	}
}

// Finish closes the session: the store WARNING when a cache tier
// degraded, the journal's summary record — the pool's and cache's
// counters, the breaker state and the store probe's histograms — and,
// unless quiet, its path, then the profile flush.
func (s *Session) Finish(w io.Writer, quiet bool) {
	s.warnStore(w)
	if s.jw != nil {
		c := s.Pool.Cache()
		cs := c.Stats()
		sum := journal.Summary{Runner: s.Pool.Stats(), Cache: &cs, StoreDetached: c.BackendDetached()}
		if s.probe != nil {
			sum.StoreGet, sum.StorePut = s.probe.Stats()
		}
		if err := s.jw.Close(sum); err != nil {
			fmt.Fprintf(w, "%s: WARNING: journal degraded: %v\n", s.Cmd, err)
		} else if !quiet {
			fmt.Fprintf(w, "%s: journal %s\n", s.Cmd, s.jw.Path())
		}
	}
	if s.stopProfiles != nil {
		if err := s.stopProfiles(); err != nil {
			fmt.Fprintf(w, "%s: %v\n", s.Cmd, err)
		}
	}
}

// warnStore writes "<cmd>: WARNING: ..." to w when the persistent store
// degraded during the run: backend failures either cache tier degraded
// around, and whether a circuit breaker detached the store entirely
// (values computed after that point were not persisted). It writes
// nothing when both tiers stayed healthy, and ignores quiet: silently
// losing persistence is worse than a noisy line.
func (s *Session) warnStore(w io.Writer) {
	c := s.Pool.Cache()
	errs := c.Stats().StoreErrors
	var lost []string
	if c.BackendDetached() {
		lost = append(lost, "results")
	}
	if s.Snaps != nil {
		errs += s.Snaps.Stats().StoreErrors
		if s.Snaps.BackendDetached() {
			lost = append(lost, "snapshots")
		}
	}
	if errs == 0 && len(lost) == 0 {
		return
	}
	msg := fmt.Sprintf("%s: WARNING: persistent store degraded: %d backend errors", s.Cmd, errs)
	if len(lost) > 0 {
		msg += fmt.Sprintf("; store detached after repeated failures, later %s were not persisted", strings.Join(lost, " and "))
	}
	fmt.Fprintln(w, msg)
}

// startProfiles begins a CPU profile at cpuPath and arranges a heap
// profile at memPath (either may be empty to skip that profile). The
// returned stop function finishes the CPU profile and writes the heap
// profile; profiles flush on clean exit only — a fatal path that skips
// stop leaves at most a partial CPU profile, never corrupt results.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		cpuFile = f
	}
	return func() error {
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				first = fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				if first == nil {
					first = fmt.Errorf("heap profile: %w", err)
				}
				return first
			}
			runtime.GC() // settle the heap so the profile reflects live data
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil && first == nil {
				first = fmt.Errorf("heap profile: %w", err)
			}
		}
		return first
	}, nil
}
