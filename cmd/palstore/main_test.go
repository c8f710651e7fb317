package main

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

// Keys of the test store: one result and one snapshot sharing the
// prefix "ab", each unique from its third digit on.
const (
	resultKey   = "ab1" + "0000000000000000000000000000000000000000000000000000000000001"
	snapshotKey = "ab2" + "0000000000000000000000000000000000000000000000000000000000002"
)

// testStore opens a temp store holding one result and one snapshot.
func testStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(resultKey, &sim.Result{Rounds: 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutSnapshot(snapshotKey, &sim.Snapshot{Rounds: 2}); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestResolveKey: a unique prefix of either object kind resolves to its
// full key and kind, searching results and snapshots alike.
func TestResolveKey(t *testing.T) {
	st := testStore(t)
	for _, c := range []struct{ prefix, key, kind string }{
		{"ab1", resultKey, "result"},
		{"ab2", snapshotKey, "snapshot"},
		{resultKey, resultKey, "result"},
	} {
		key, kind, err := resolveKey(st, c.prefix)
		if err != nil || key != c.key || kind != c.kind {
			t.Errorf("resolveKey(%q) = %q, %q, %v; want %q, %q", c.prefix, key, kind, err, c.key, c.kind)
		}
	}
}

// TestResolveKeyErrors: an ambiguous prefix and a prefix matching
// nothing are errors that name the prefix; the ambiguous one also
// names the candidates' kinds, so a short prefix never silently picks
// the wrong object.
func TestResolveKeyErrors(t *testing.T) {
	st := testStore(t)
	for _, c := range []struct {
		prefix string
		want   []string
	}{
		{"ab", []string{`"ab"`, "ambiguous", "2 matches", "result", "snapshot"}},
		{"ff", []string{`"ff"`, "no stored object"}},
	} {
		_, _, err := resolveKey(st, c.prefix)
		if err == nil {
			t.Errorf("resolveKey(%q) succeeded, want an error", c.prefix)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("resolveKey(%q) error %q does not mention %s", c.prefix, err, w)
			}
		}
	}
}
