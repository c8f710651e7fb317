package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenTables pins every deterministic experiment's quick-scale
// table byte for byte against testdata/golden/<name>.txt. The engine
// suites compare the engine with itself (fast vs naive, forked vs
// whole); these files are absolute outputs, so a refactor of the
// layers above the engine that changes any published number fails here.
// fig18 reports wall-clock placement timings and has no golden file.
//
// A deliberate change to a table regenerates the files with
//
//	go run ./cmd/palsweep -experiments all -scale quick -quiet -out internal/experiments/testdata/golden
//	rm internal/experiments/testdata/golden/fig18.txt
func TestGoldenTables(t *testing.T) {
	scale := QuickScale()
	for _, name := range Names() {
		if name == "fig18" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			table, err := RunByName(name, scale)
			if err != nil {
				t.Fatalf("%s failed: %v", name, err)
			}
			if got := table.String(); got != string(want) {
				t.Errorf("%s differs from its golden table:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
			}
		})
	}
}
