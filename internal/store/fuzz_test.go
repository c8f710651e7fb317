package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
)

// FuzzLoadIndex: loadIndexLocked over arbitrary index.jsonl bytes never
// panics, skips every malformed line, and yields exactly the valid keys
// of the well-formed lines. The only error it may return is a line
// longer than the scanner's 1 MiB limit.
func FuzzLoadIndex(f *testing.F) {
	// A real index: two puts and an access, as Put and Get leave it.
	dir := f.TempDir()
	st, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	key, res := runSpec(f, tinySpec)
	if err := st.Put(key, res); err != nil {
		f.Fatal(err)
	}
	if err := st.Put(key64(1), res); err != nil {
		f.Fatal(err)
	}
	if _, _, err := st.Get(key); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(st.index)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)-7]) // torn trailing append
	f.Add([]byte(`{"op":"put","key":"` + key64(2) + `","size":-5,"unix_ns":1}` + "\r\n" +
		`{"op":"access","key":"XYZ","unix_ns":2}` + "\n" +
		`{"op":"bogus","key":"` + key64(3) + `"}` + "\n" +
		`[1,2,3]` + "\n\n   \n" + `{"key":` + "\n"))
	f.Add([]byte{})

	// One scratch tree serves every input: a fuzz worker runs its
	// inputs one at a time.
	s := treeAt(f.TempDir(), "v1")
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.index, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := s.loadIndexLocked()
		if err != nil {
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("loadIndexLocked: %v", err)
			}
			return
		}
		want := map[string]bool{}
		for _, line := range bytes.Split(data, []byte("\n")) {
			var rec indexRecord
			if json.Unmarshal(bytes.TrimSpace(line), &rec) == nil && validKey(rec.Key) {
				want[rec.Key] = true
			}
		}
		for k, e := range entries {
			if !validKey(k) {
				t.Fatalf("index yielded invalid key %q", k)
			}
			if e == nil {
				t.Fatalf("index yielded a nil entry for %s", k)
			}
			if !want[k] {
				t.Fatalf("index yielded key %s from no well-formed line", k)
			}
		}
		if len(entries) != len(want) {
			t.Fatalf("index yielded %d keys, the well-formed lines name %d", len(entries), len(want))
		}
	})
}
