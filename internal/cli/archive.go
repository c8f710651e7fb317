package cli

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/decision"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
)

// The filename suffixes of archived payloads and decision traces;
// ReadArchive discovers them in a directory by these.
const (
	MetricsExt   = ".metrics.json"
	DecisionsExt = ".decisions.json"
)

// WriteArchive archives one run into dir under base: the telemetry
// payload as <base>.metrics.json plus one <base>.<series>.csv per
// recorded series, and the decision trace, when the run recorded one,
// as <base>.decisions.json. Both carry key, stamped on copies — the
// result may be shared through the cache. It creates dir as needed and
// returns the payload's path and the trace's ("" without a trace).
func WriteArchive(dir, base, key string, res *sim.Result) (payloadPath, tracePath string, err error) {
	payload := metrics.FromResult(res)
	if payload == nil {
		return "", "", fmt.Errorf("run produced no metrics payload")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	p := *payload
	p.Key = key
	payloadPath = filepath.Join(dir, base+MetricsExt)
	if err := writeFile(payloadPath, func(w io.Writer) error { return p.Save(w) }); err != nil {
		return "", "", err
	}
	for _, s := range p.Series {
		name := s.Name
		path := filepath.Join(dir, base+"."+name+".csv")
		if err := writeFile(path, func(w io.Writer) error { return seriesCSV(w, &p, name) }); err != nil {
			return "", "", err
		}
	}
	if tr := decision.FromResult(res); tr != nil {
		t := *tr
		t.Key = key
		tracePath = filepath.Join(dir, base+DecisionsExt)
		if err := writeFile(tracePath, func(w io.Writer) error { return t.Save(w) }); err != nil {
			return "", "", err
		}
	}
	return payloadPath, tracePath, nil
}

// seriesCSV writes one metric series as CSV (round index, derived
// wall-clock time, value). Dropped ring-buffer samples are noted in a
// trailing comment row so a tail window is distinguishable from a
// complete series.
func seriesCSV(w io.Writer, p *metrics.Payload, name string) error {
	s, ok := p.SeriesByName(name)
	if !ok {
		return fmt.Errorf("payload %q has no series %q", p.Name, name)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"round", "time_sec", name}); err != nil {
		return err
	}
	times := s.Times(p)
	for i, r := range s.Rounds {
		if err := cw.Write([]string{
			strconv.FormatInt(r, 10),
			fmt.Sprintf("%.0f", times[i]),
			strconv.FormatFloat(s.Values[i], 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	if s.Dropped > 0 {
		if err := cw.Write([]string{fmt.Sprintf("# %d older samples dropped by the ring buffer", s.Dropped), "", ""}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeFile creates path and fills it with render's output.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// Archive is what an -in argument resolved to, in token order (the
// first payload is palreport's default baseline, so a file named before
// a store stays first).
type Archive struct {
	Payloads []*metrics.Payload
	Traces   []*decision.Trace
	// Keys holds every result key of every store the argument named:
	// results archived without telemetry carry no payload but still
	// prove their run happened.
	Keys map[string]bool
}

// ReadArchive resolves arg's comma-separated tokens in one pass. A
// token that is a result-store root (of any codec version) is opened
// once and every stored result is Peeked once — reading must not
// refresh GC recency — contributing its embedded payload and trace; a
// payload or trace without a Key or Name takes the store key and a key
// prefix. Any other token expands to archive files (a file, a directory
// of *.metrics.json or *.decisions.json, or a glob); a file's Name
// falls back to its base name.
//
// The primary kind is payloads when payloads is set, else traces. For
// it, a token matching no file is a miss — every miss is collected into
// one error — and a store result without it is counted in a skip note
// on stderr. Traces read beside payloads are best effort: a token
// without traces is skipped, because a mixed archive directory is the
// common case.
func ReadArchive(cmd, arg string, payloads, traces bool) (*Archive, error) {
	a := &Archive{Keys: make(map[string]bool)}
	var misses []string
	for _, tok := range strings.Split(arg, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		// IsStoreRoot, not IsStore: a store populated under an older
		// codec version is still a store — report it as empty-for-this-
		// codec rather than "directory with no *.metrics.json".
		if store.IsStoreRoot(tok) {
			if err := a.readStore(cmd, tok, payloads, traces); err != nil {
				return nil, err
			}
			continue
		}
		if payloads {
			paths, err := export.ExpandFileArgs(tok, MetricsExt)
			if err != nil {
				misses = append(misses, err.Error())
			}
			for _, path := range paths {
				p, err := metrics.LoadFile(path)
				if err != nil {
					return nil, err
				}
				if p.Name == "" {
					p.Name = strings.TrimSuffix(filepath.Base(path), MetricsExt)
				}
				a.Payloads = append(a.Payloads, p)
			}
		}
		if traces {
			paths, err := export.ExpandFileArgs(tok, DecisionsExt)
			if err != nil && !payloads {
				misses = append(misses, err.Error())
			}
			for _, path := range paths {
				if payloads && !strings.HasSuffix(path, DecisionsExt) {
					continue // a payload file named on its own
				}
				t, err := decision.LoadFile(path)
				if err != nil {
					return nil, err
				}
				if t.Name == "" {
					t.Name = strings.TrimSuffix(filepath.Base(path), DecisionsExt)
				}
				a.Traces = append(a.Traces, t)
			}
		}
	}
	if len(misses) > 0 {
		return nil, fmt.Errorf("-in: %s", strings.Join(misses, "; "))
	}
	return a, nil
}

// readStore adds the store at dir to the archive: its keys, and the
// payload and trace embedded in each stored result.
func (a *Archive) readStore(cmd, dir string, payloads, traces bool) error {
	if !store.IsStore(dir) {
		// The root holds only older-codec trees; say so instead of letting
		// the generic "no payloads found" hide the version mismatch. The
		// store is not opened: Open would create the current codec's
		// tree, and reading must leave the root as it found it.
		fmt.Fprintf(os.Stderr, "%s: store %s holds no objects for the current codec (older-version trees present; re-run the sweeps, then `palstore gc` reclaims the old tree)\n", cmd, dir)
		return nil
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	keys, err := st.Keys()
	if err != nil {
		return err
	}
	skipped := 0
	for _, key := range keys {
		a.Keys[key] = true
		res, ok, err := st.Peek(key)
		if err != nil {
			return err
		}
		if !ok {
			continue // raced with a concurrent GC
		}
		p, t := metrics.FromResult(res), decision.FromResult(res)
		if (payloads && p == nil) || (!payloads && t == nil) {
			skipped++
		}
		// Stamp identity on copies: stored payloads and traces are
		// shared values.
		if payloads && p != nil {
			cp := *p
			cp.Key, cp.Name = identity(cp.Key, cp.Name, key)
			a.Payloads = append(a.Payloads, &cp)
		}
		if traces && t != nil {
			cp := *t
			cp.Key, cp.Name = identity(cp.Key, cp.Name, key)
			a.Traces = append(a.Traces, &cp)
		}
	}
	switch {
	case skipped == 0:
	case payloads:
		fmt.Fprintf(os.Stderr, "%s: store %s: skipped %d results without telemetry (re-run them with metrics enabled to tabulate)\n", cmd, dir, skipped)
	default:
		fmt.Fprintf(os.Stderr, "%s: store %s: skipped %d results without decision traces (re-run them with decisions enabled to explain)\n", cmd, dir, skipped)
	}
	return nil
}

// identity fills a stored payload's or trace's empty Key and Name from
// the store key: the store key doubles as the cache key, and a label-less
// run falls back to a key prefix.
func identity(k, name, key string) (string, string) {
	if k == "" {
		k = key
	}
	if name == "" {
		name = key[:12]
	}
	return k, name
}
