package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecCanonical: parse → Canonical → parse is a fixed point for any
// input Parse accepts — same canonical bytes, same spec — and any other
// input is an error, never a panic. Seeded from the round-trip corpus
// and the checked-in example specs.
func FuzzSpecCanonical(f *testing.F) {
	for _, src := range specCorpus() {
		f.Add([]byte(src))
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenario", "*.json"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("example specs: %v (found %d)", err, len(examples))
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := Parse(data); err != nil {
			return
		}
		checkCanonicalRoundTrip(t, data)
	})
}
