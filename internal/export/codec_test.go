package export

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// filler sets every exported field reachable from a value to a
// distinct non-zero value, so a field the hand-written codec does not
// carry decodes as zero and breaks a reflect.DeepEqual round trip.
// With empty set, every slice is instead empty but non-nil, pinning the
// nil-versus-empty distinction of each one.
type filler struct {
	t     *testing.T
	next  int
	empty bool
	// skip names the interface and aliasing fields the test wires up by
	// hand ("Type.Field").
	skip map[string]bool
}

func (f *filler) fill(v reflect.Value, path string) {
	f.next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(f.next))
	case reflect.Uint8:
		v.SetUint(uint64(f.next % 256))
	case reflect.Float64:
		v.SetFloat(float64(f.next) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.next))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), path)
	case reflect.Slice:
		n := 2
		if f.empty {
			n = 0
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := range n {
			f.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Struct:
		typ := v.Type()
		for i := range typ.NumField() {
			field := typ.Field(i)
			if !field.IsExported() || f.skip[typ.Name()+"."+field.Name] {
				continue
			}
			f.fill(v.Field(i), path+"."+field.Name)
		}
	default:
		f.t.Fatalf("%s: field kind %s has no filler; teach the codec and this test about it", path, v.Kind())
	}
}

// filledResult returns a result whose every exported field — nested
// jobs, the embedded metrics payload and decision trace included — is
// set by f.
func filledResult(f *filler) *sim.Result {
	var res sim.Result
	f.fill(reflect.ValueOf(&res).Elem(), "Result")
	var payload metrics.Payload
	f.fill(reflect.ValueOf(&payload).Elem(), "Payload")
	var tr decision.Trace
	f.fill(reflect.ValueOf(&tr).Elem(), "Trace")
	res.Metrics = metrics.NewArchivedSink(&payload)
	res.Decisions = decision.NewArchivedSink(&tr)
	if len(res.Jobs) > 0 {
		res.Measured = []*sim.Job{res.Jobs[1], res.Jobs[0]}
	} else if !f.empty {
		f.t.Fatal("filled result has no jobs")
	}
	return &res
}

// TestCodecCarriesEveryField is the field-drift guard: JSON carried new
// fields for free, the binary layout does not. Every exported field of
// sim.Result (with its jobs), metrics.Payload, decision.Trace and
// sim.Snapshot is set non-zero and must survive a round trip; a field
// added later without codec support fails here.
func TestCodecCarriesEveryField(t *testing.T) {
	skip := map[string]bool{"Result.Metrics": true, "Result.Decisions": true, "Result.Measured": true}
	for _, empty := range []bool{false, true} {
		t.Run(fmt.Sprintf("empty=%v", empty), func(t *testing.T) {
			res := filledResult(&filler{t: t, empty: empty, skip: skip})
			got, err := DecodeResult(bytes.NewReader(encodeResult(t, res)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, res) {
				t.Errorf("result did not round-trip:\n in  %+v\nout %+v", res, got)
			}
			if !reflect.DeepEqual(metrics.FromResult(got), metrics.FromResult(res)) {
				t.Errorf("metrics payload did not round-trip:\n in  %+v\nout %+v", metrics.FromResult(res), metrics.FromResult(got))
			}
			if !reflect.DeepEqual(decision.FromResult(got), decision.FromResult(res)) {
				t.Errorf("decision trace did not round-trip:\n in  %+v\nout %+v", decision.FromResult(res), decision.FromResult(got))
			}

			var snap sim.Snapshot
			(&filler{t: t, empty: empty}).fill(reflect.ValueOf(&snap).Elem(), "Snapshot")
			gotSnap, err := DecodeSnapshot(bytes.NewReader(encodeSnapshot(t, &snap)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotSnap, &snap) {
				t.Errorf("snapshot did not round-trip:\n in  %+v\nout %+v", &snap, gotSnap)
			}
		})
	}
}

// TestCodecRejectsCorruptSnapshot: the snapshot decoder is as strict as
// the result decoder — every truncation, trailing bytes, an invalid
// bool and another revision's tag are all rejected.
func TestCodecRejectsCorruptSnapshot(t *testing.T) {
	snap, _, err := sim.Capture(liveConfig(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeSnapshot(t, snap)
	for n := range len(enc) {
		if _, err := DecodeSnapshot(bytes.NewReader(enc[:n])); err == nil {
			t.Fatalf("archive truncated to %d of %d bytes decoded", n, len(enc))
		}
	}
	if _, err := DecodeSnapshot(bytes.NewReader(append(bytes.Clone(enc), 0))); err == nil ||
		!strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("trailing byte: err = %v", err)
	}
	// The body opens with the Completed bool.
	bad := bytes.Clone(enc)
	bad[len(snapshotFormat)+1] = 2
	if _, err := DecodeSnapshot(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "invalid bool") {
		t.Fatalf("bool 2: err = %v", err)
	}
	if _, err := DecodeSnapshot(bytes.NewReader(encodeResult(t, sampleResult()))); err == nil ||
		!strings.Contains(err.Error(), "codec version mismatch") {
		t.Fatalf("result archive as snapshot: err = %v", err)
	}
}

// TestCodecDeterministic: encoding is a pure function of the value —
// the same result encodes to identical bytes, live sinks included.
func TestCodecDeterministic(t *testing.T) {
	res, err := sim.Run(liveConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResult(t, res), encodeResult(t, res)) {
		t.Fatal("two encodings of one result differ")
	}
}
