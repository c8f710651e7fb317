package export

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/sim"
)

// The binary layout both store archives (results and snapshots) share.
// An archive is one line naming its format tag ("pal-result/v4\n"),
// then a body of fields in a fixed order with no names and no padding:
//
//   - unsigned counts and indices: uvarint;
//   - ints: zigzag varint (encoding/binary's Varint);
//   - floats: the 8 little-endian bytes of math.Float64bits, so every
//     value (NaN payloads and signed zeros included) round-trips
//     bit-for-bit;
//   - bools: one byte, 0 or 1 (anything else is rejected);
//   - strings: uvarint byte length, then the bytes;
//   - slices and byte blobs: a uvarint prefix of 0 for nil and n+1 for
//     length n, so nil and empty stay distinct;
//   - optional pointers: a presence bool, then the value.
//
// The encoding of a value is a pure function of it, so encoding twice
// gives identical bytes. The decoder is strict: a wrong tag, a value
// running past the end, an invalid bool, a length prefix larger than
// the bytes that remain (a corrupt file cannot force a huge
// allocation) and trailing bytes after the body are all errors.

// encoder appends the layout to an in-memory buffer.
type encoder struct {
	buf []byte
}

// encoders recycles encode buffers: a sweep encodes many archives of
// similar size, and regrowing a fresh buffer for each one costs more
// than writing the fields.
var encoders = sync.Pool{New: func() any { return &encoder{buf: make([]byte, 0, 64<<10)} }}

// newEncoder returns a pooled encoder holding an archive's format tag
// line; release it with done.
func newEncoder(format string) *encoder {
	e := encoders.Get().(*encoder)
	e.buf = append(append(e.buf[:0], format...), '\n')
	return e
}

func (e *encoder) done() { encoders.Put(e) }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) int(v int)        { e.buf = binary.AppendVarint(e.buf, int64(v)) }
func (e *encoder) int64(v int64)    { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) float(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *encoder) bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// length writes a slice's nil-aware length prefix.
func (e *encoder) length(n int, isNil bool) {
	if isNil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(n) + 1)
}

func (e *encoder) blob(b []byte) {
	e.length(len(b), b == nil)
	e.buf = append(e.buf, b...)
}

func (e *encoder) ints(s []int) {
	e.length(len(s), s == nil)
	for _, v := range s {
		e.int(v)
	}
}

func (e *encoder) int64s(s []int64) {
	e.length(len(s), s == nil)
	for _, v := range s {
		e.int64(v)
	}
}

func (e *encoder) floats(s []float64) {
	e.length(len(s), s == nil)
	for _, v := range s {
		e.float(v)
	}
}

// putSlice writes a nil-aware slice of structs, one put call per
// element.
func putSlice[T any](e *encoder, s []T, put func(*encoder, *T)) {
	e.length(len(s), s == nil)
	for i := range s {
		put(e, &s[i])
	}
}

// decoder reads the layout back. The first error sticks: later reads
// return zero values, so a codec reads a whole archive and checks err
// once at the end.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// remaining is the number of unread bytes.
func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated or overflowing varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated or overflowing varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail("int %d overflows at byte %d", v, d.off)
		return 0
	}
	return int(v)
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated float at byte %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.remaining() < 1 {
		d.fail("truncated bool at byte %d", d.off)
		return false
	}
	b := d.data[d.off]
	if b > 1 {
		d.fail("invalid bool %d at byte %d", b, d.off)
		return false
	}
	d.off++
	return b == 1
}

// count reads a byte count or element count that must fit in what
// remains when each element takes at least minSize bytes.
func (d *decoder) count(v uint64, minSize int) int {
	if v > uint64(d.remaining()/minSize) {
		d.fail("length %d at byte %d exceeds the %d bytes that remain", v, d.off, d.remaining())
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.count(d.uvarint(), 1)
	if d.err != nil {
		return ""
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s
}

// length reads a nil-aware length prefix for elements of at least
// minSize bytes each; isNil is also set after an error.
func (d *decoder) length(minSize int) (n int, isNil bool) {
	v := d.uvarint()
	if d.err != nil || v == 0 {
		return 0, true
	}
	n = d.count(v-1, minSize)
	return n, d.err != nil
}

func (d *decoder) blob() []byte {
	n, isNil := d.length(1)
	if isNil {
		return nil
	}
	b := make([]byte, n)
	d.off += copy(b, d.data[d.off:])
	return b
}

func (d *decoder) ints() []int {
	n, isNil := d.length(1)
	if isNil {
		return nil
	}
	s := make([]int, n)
	for i := range s {
		s[i] = d.int()
	}
	return s
}

func (d *decoder) int64s() []int64 {
	n, isNil := d.length(1)
	if isNil {
		return nil
	}
	s := make([]int64, n)
	for i := range s {
		s[i] = d.int64()
	}
	return s
}

func (d *decoder) floats() []float64 {
	n, isNil := d.length(8)
	if isNil {
		return nil
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
		d.off += 8
	}
	return s
}

// getSlice reads a slice written by putSlice, one get call per element
// filling it in place.
func getSlice[T any](d *decoder, get func(*decoder, *T)) []T {
	n, isNil := d.length(1)
	if isNil {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		if d.err != nil {
			return nil
		}
		get(d, &s[i])
	}
	return s
}

// putJob and getJob are the one per-job layout: a snapshot's arrived
// jobs and a result's jobs are both written as sim.JobState.
func putJob(e *encoder, j *sim.JobState) {
	e.int(j.ID)
	e.str(j.Model)
	e.int(j.Class)
	e.float(j.Arrival)
	e.int(j.Demand)
	e.float(j.Work)
	e.float(j.Remaining)
	e.ints(j.Alloc)
	e.float(j.Attained)
	e.bool(j.Started)
	e.float(j.FirstRun)
	e.float(j.Finish)
	e.bool(j.Done)
	e.int(j.Preemptions)
	e.int(j.Migrations)
	e.ints(j.PrevAlloc)
}

func getJob(d *decoder, j *sim.JobState) {
	j.ID = d.int()
	j.Model = d.str()
	j.Class = d.int()
	j.Arrival = d.float()
	j.Demand = d.int()
	j.Work = d.float()
	j.Remaining = d.float()
	j.Alloc = d.ints()
	j.Attained = d.float()
	j.Started = d.bool()
	j.FirstRun = d.float()
	j.Finish = d.float()
	j.Done = d.bool()
	j.Preemptions = d.int()
	j.Migrations = d.int()
	j.PrevAlloc = d.ints()
}

// readArchive reads a whole archive and returns a decoder over its
// body, after checking the format tag line. An archive of any other
// format — another revision, or the JSON archives of earlier codecs,
// whose first line is "{" — is a codec version mismatch.
func readArchive(r io.Reader, format, kind string) (*decoder, error) {
	var data []byte
	var err error
	if sized, ok := r.(interface{ Len() int }); ok {
		// In-memory readers (bytes.Reader, bytes.Buffer) report their
		// size: read in one exact allocation instead of growing.
		data = make([]byte, sized.Len())
		_, err = io.ReadFull(r, data)
	} else {
		data, err = io.ReadAll(r)
	}
	if err != nil {
		return nil, fmt.Errorf("export: read %s archive: %w", kind, err)
	}
	header := format + "\n"
	if !bytes.HasPrefix(data, []byte(header)) {
		tag := data[:min(len(data), len(header)+16)]
		if i := bytes.IndexByte(tag, '\n'); i >= 0 {
			tag = tag[:i]
		}
		return nil, fmt.Errorf("export: %s archive format %q, want %q (codec version mismatch)", kind, tag, format)
	}
	return &decoder{data: data, off: len(header)}, nil
}

// finish reports the first decode error, or trailing bytes after a
// fully decoded body.
func (d *decoder) finish(kind string) error {
	if d.err == nil && d.off != len(d.data) {
		d.err = fmt.Errorf("%d trailing bytes after the body", len(d.data)-d.off)
	}
	if d.err != nil {
		return fmt.Errorf("export: decode %s archive: %w", kind, d.err)
	}
	return nil
}
