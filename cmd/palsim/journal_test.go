package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/journal"
)

// journalTestSpec is a small single-run scenario: one simulation, one
// journal task span — the palsim shape (palsweep journals hold many).
const journalTestSpec = `{
  "name": "palsim-journal-test",
  "seed": 3,
  "cluster": {"nodes": 2, "gpus_per_node": 4},
  "workload": {"source": "synthetic", "num_jobs": 24, "jobs_per_hour": 12, "median_work_sec": 1800},
  "policy": {"name": "pal"}
}`

// openSession opens a palsim session, as main does, over storeDir and
// journalDir (either may be empty), failing the test on error.
func openSession(t *testing.T, storeDir, journalDir string) *cli.Session {
	t.Helper()
	s, err := cli.Open("palsim", cli.Flags{Workers: 1, CacheCap: 1, Store: storeDir, Journal: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSingleRunJournalReconciles pins the palsim half of the journal
// contract: a single-task journal written by palsim's session — one
// task through a 1-worker pool whose cache the store backs — must
// reconcile exactly with what palreport's TOTAL row
// derives from it — one task span, worker count 1, one store Get per
// task, and engine counters whose summary total equals both the task
// event's counters and the run's Result.Rounds. A warm re-run through
// the same store must journal a store-hit span with no counters (no
// engine stepped), which the reader reports as counter-less rather
// than fabricating zeros.
func TestSingleRunJournalReconciles(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(journalTestSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	built, err := prepare(configFlags{}, specPath, outputFlags{})
	if err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")

	// Cold run: simulate, store, journal one executed span.
	coldDir := filepath.Join(dir, "journal-cold")
	cold := openSession(t, storeDir, coldDir)
	res := runSpec(io.Discard, cold, built, "", outputFlags{})
	ranCounters := *cold.Engine
	finish(io.Discard, cold)

	procs, err := journal.LoadDir(coldDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 {
		t.Fatalf("loaded %d journals, want 1", len(procs))
	}
	p := procs[0]
	if p.Header.Workers != 1 {
		t.Errorf("header workers = %d, want palsim's single synthetic slot", p.Header.Workers)
	}
	c := p.Counts()
	if c.Tasks != 1 || c.Executed != 1 || c.StoreHits != 0 || c.Errors != 0 {
		t.Errorf("cold-run tier counts %+v, want exactly one executed task", c)
	}
	if p.Summary == nil {
		t.Fatal("cold-run journal has no summary record")
	}
	if p.Summary.StoreGet == nil || p.Summary.StoreGet.Count != 1 || p.Summary.StoreGet.Misses != 1 {
		t.Errorf("store probe gets %+v, want one miss (one Get per task)", p.Summary.StoreGet)
	}
	if p.Summary.StorePut == nil || p.Summary.StorePut.Count != 1 {
		t.Errorf("store probe puts %+v, want the one result stored", p.Summary.StorePut)
	}
	ec, ok := p.EngineCounters()
	if !ok {
		t.Fatal("cold-run journal carries no engine counters")
	}
	if *ec != ranCounters {
		t.Errorf("journal engine counters %+v differ from the run's %+v", *ec, ranCounters)
	}
	if len(p.Tasks) != 1 || p.Tasks[0].Counters == nil || *p.Tasks[0].Counters != ranCounters {
		t.Error("task event does not carry the run's counters")
	}
	if p.Summary.Engine == nil || *p.Summary.Engine != ranCounters {
		t.Error("summary engine total does not equal the task event's counters")
	}
	if got, want := ec.TotalRounds(), int64(res.Rounds); got != want {
		t.Errorf("engine counters report %d rounds, result reports %d", got, want)
	}
	if ec.TotalRounds() == 0 {
		t.Error("run stepped zero rounds; the spec must exercise the engine")
	}

	// Warm run: the store satisfies the task, so the span is a store hit
	// with no counters attached — no engine stepped in this process.
	warmDir := filepath.Join(dir, "journal-warm")
	warm := openSession(t, storeDir, warmDir)
	warmRes := runSpec(io.Discard, warm, built, "", outputFlags{})
	finish(io.Discard, warm)
	if warmRes.Rounds != res.Rounds {
		t.Errorf("warm store hit returned %d rounds, cold run had %d", warmRes.Rounds, res.Rounds)
	}

	procs, err = journal.LoadDir(warmDir)
	if err != nil {
		t.Fatal(err)
	}
	p = procs[0]
	c = p.Counts()
	if c.Tasks != 1 || c.StoreHits != 1 || c.Executed != 0 {
		t.Errorf("warm-run tier counts %+v, want exactly one store hit", c)
	}
	if _, ok := p.EngineCounters(); ok {
		t.Error("store-hit journal reports engine counters; no engine stepped here")
	}
	if p.Summary == nil || p.Summary.Engine != nil {
		t.Error("store-hit summary should carry no engine total")
	}
}

// TestStoreGetFailureDegrades: a stored object that no longer decodes
// makes the store's Get fail. The run must still return the result —
// the cache degrades to simulating — and palsim must print the shared
// store WARNING.
func TestStoreGetFailureDegrades(t *testing.T) {
	path := writeSpec(t, journalTestSpec)
	storeDir := filepath.Join(t.TempDir(), "store")
	var coldErr bytes.Buffer
	cold := openSession(t, storeDir, "")
	_, want := runPalsim(t, cold, configFlags{}, path, outputFlags{})
	finish(&coldErr, cold)
	if strings.Contains(coldErr.String(), "WARNING") {
		t.Fatalf("healthy cold run warned:\n%s", coldErr.String())
	}

	objects, err := filepath.Glob(filepath.Join(storeDir, "*", "objects", "*", "*.bin"))
	if err != nil || len(objects) != 1 {
		t.Fatalf("store objects %v (err %v), want exactly one", objects, err)
	}
	if err := os.WriteFile(objects[0], []byte("{not a result"), 0o644); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	warm := openSession(t, storeDir, "")
	_, got := runPalsim(t, warm, configFlags{}, path, outputFlags{})
	finish(&stderr, warm)
	if got != want {
		t.Errorf("degraded run reported\n%s\nwant\n%s", got, want)
	}
	for _, line := range []string{
		"palsim: 1 simulated, 0 cache hits (0 memory, 0 store), 1 stored, 1 store errors\n",
		"palsim: WARNING: persistent store degraded: 1 backend errors\n",
	} {
		if !strings.Contains(stderr.String(), line) {
			t.Errorf("stderr lacks %q:\n%s", line, stderr.String())
		}
	}
}
