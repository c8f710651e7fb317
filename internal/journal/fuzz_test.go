package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// FuzzJournalLoad: every input file either fails to load or loads into
// a Process whose derived views — Counts, EngineCounters, WallMS and
// WorkerBusy, what palreport -journal renders — do not panic. Seeds are
// the journal TestWriterReaderRoundTrip writes and a crashed writer's
// variant of it: no summary, a task carrying engine counters (so the
// task-sum fallback of EngineCounters runs) and a torn trailing line.
func FuzzJournalLoad(f *testing.F) {
	w, _, _ := writeSampleJournal(f, f.TempDir())
	sample, err := os.ReadFile(w.Path())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)

	header, _, _ := bytes.Cut(sample, []byte("\n"))
	task, err := json.Marshal(TaskEvent{Type: TypeTask, Key: "k4", Worker: 2, Outcome: "executed",
		DurMS: 12, Counters: &sim.Counters{MaterializedRounds: 3, IdleGapRounds: 1}})
	if err != nil {
		f.Fatal(err)
	}
	crashed := append(append(append(header, '\n'), task...), '\n')
	f.Add(append(crashed, `{"type":"task","key":"torn`...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz"+Ext)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Load(path)
		if err != nil {
			return
		}
		p.Counts()
		p.EngineCounters()
		p.WallMS()
		p.WorkerBusy()
	})
}
