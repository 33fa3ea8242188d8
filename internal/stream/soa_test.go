package stream

// Tests for the struct-of-arrays chunk regions (soa.go) and the mmap-backed
// reader (mmap.go): the adapter round-trip, the batch decoder's differential
// parity with the serial reader, its error-taxonomy mapping (including the
// fuzz counterexample corpus from earlier PRs), and mmap/ReadAt equivalence.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// TestChunkSoAAdapterRoundTrip: transposing events into columns and back
// through every adapter (AppendEvent, AppendEvents, AppendSoA, Slice, Event,
// AppendTo) reproduces the original slice exactly, and Reset keeps the arena
// capacity.
func TestChunkSoAAdapterRoundTrip(t *testing.T) {
	tr := randomTrace(137, 3)
	c := NewChunkSoA(8)
	for _, e := range tr.Events[:10] {
		c.AppendEvent(e)
	}
	c.AppendEvents(tr.Events[10:])
	if c.Len() != tr.Len() {
		t.Fatalf("Len() = %d, want %d", c.Len(), tr.Len())
	}
	for i, want := range tr.Events {
		if got := c.Event(i); got != want {
			t.Fatalf("Event(%d) = %+v, want %+v", i, got, want)
		}
	}
	if got := c.AppendTo(nil); len(got) != tr.Len() {
		t.Fatalf("AppendTo yielded %d events, want %d", len(got), tr.Len())
	}

	// A bulk column copy of a slice view is identical to copying the events.
	lo, hi := 13, 77
	var d ChunkSoA
	view := c.Slice(lo, hi)
	d.AppendSoA(&view)
	if d.Len() != hi-lo {
		t.Fatalf("AppendSoA: Len() = %d, want %d", d.Len(), hi-lo)
	}
	for i := 0; i < d.Len(); i++ {
		if d.Event(i) != tr.Events[lo+i] {
			t.Fatalf("AppendSoA row %d = %+v, want %+v", i, d.Event(i), tr.Events[lo+i])
		}
	}

	// Reset empties but keeps capacity: refilling must not grow the columns.
	capBefore := cap(c.Kind)
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len() after Reset = %d", c.Len())
	}
	c.AppendEvents(tr.Events)
	if cap(c.Kind) != capBefore {
		t.Fatalf("refill after Reset reallocated: cap %d -> %d", capBefore, cap(c.Kind))
	}
}

// TestBatchDecodeMatchesSerial is the deterministic differential for the
// batch SoA decoder: walking the chunk index with decodeChunkRegion yields
// exactly the serial reader's event sequence, for several chunk geometries.
func TestBatchDecodeMatchesSerial(t *testing.T) {
	meta := Meta{Workload: "moldyn", Nodes: 16, Scale: 0.5, Seed: 3}
	for _, perCh := range []int{1, 7, 64, 1024} {
		tr := randomTrace(64*5+29, int64(perCh))
		data := encodeChunked(t, tr, meta, perCh)
		sr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Collect(sr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := collectSoA(data)
		if err != nil {
			t.Fatalf("perCh=%d: %v", perCh, err)
		}
		if len(got) != want.Len() {
			t.Fatalf("perCh=%d: batch decode yielded %d events, serial %d", perCh, len(got), want.Len())
		}
		for i := range got {
			if got[i] != want.Events[i] {
				t.Fatalf("perCh=%d event %d: batch %+v != serial %+v", perCh, i, got[i], want.Events[i])
			}
		}
	}
}

// chunkRegion hand-encodes a chunk region (count prefix + events) for the
// error-mapping tests.
func chunkRegion(count uint64, body ...byte) []byte {
	return append(binary.AppendUvarint(nil, count), body...)
}

// TestBatchDecodeErrorMapping pins the batch decoder's error taxonomy to the
// serial reader's errTrunc contract: running off the region mid-varint is
// ErrTruncated, a varint overflowing 64 bits is ErrCorrupt, any
// count/extent disagreement with the index is ErrCorrupt, and so is an
// event out of range for the stream's four nodes, named by chunk and offset.
func TestBatchDecodeErrorMapping(t *testing.T) {
	overlong := bytes.Repeat([]byte{0x80}, 9) // + terminator = 10 bytes, > 64 bits
	cases := []struct {
		name   string
		region []byte
		events uint64
		want   error
		msg    string
	}{
		{"empty region", nil, 0, ErrTruncated, "chunk count"},
		{"count cut mid-varint", []byte{0x80}, 0, ErrTruncated, "chunk count"},
		{"count overflows", append(bytes.Repeat([]byte{0x80}, 10), 0x02), 0, ErrCorrupt, "varint overflows"},
		{"count disagrees with index", chunkRegion(2, 0x01, 0x00, 0x00, 0x00), 1, ErrCorrupt, "index says"},
		{"region ends before kind", chunkRegion(1), 1, ErrTruncated, "event kind"},
		{"node cut mid-varint", chunkRegion(1, 0x01, 0x80), 1, ErrTruncated, "event node"},
		{"node overflows", chunkRegion(1, append([]byte{0x01}, append(overlong, 0x80, 0x02)...)...), 1, ErrCorrupt, "varint overflows"},
		{"block cut mid-varint", chunkRegion(1, 0x01, 0x00, 0x80), 1, ErrTruncated, "event block"},
		{"block overflows", chunkRegion(1, append([]byte{0x01, 0x00}, append(overlong, 0x80, 0x02)...)...), 1, ErrCorrupt, "varint overflows"},
		{"producer cut mid-varint", chunkRegion(1, 0x01, 0x00, 0x00, 0x80), 1, ErrTruncated, "event producer"},
		{"producer overflows", chunkRegion(1, append([]byte{0x01, 0x00, 0x00}, append(overlong, 0x80, 0x02)...)...), 1, ErrCorrupt, "varint overflows"},
		{"region longer than extent", chunkRegion(1, 0x01, 0x00, 0x00, 0x00, 0xff), 1, ErrCorrupt, "longer than its index extent"},
		{"unknown kind", chunkRegion(1, 0x03, 0x00, 0x00, 0x00), 1, ErrCorrupt, "chunk 5, event at offset 31: unknown event kind 3"},
		{"node out of range", chunkRegion(1, 0x00, 0x04, 0x00, 0x00), 1, ErrCorrupt, "chunk 5, event at offset 31: node 4 outside [0,4)"},
		{"producer out of range", chunkRegion(2, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x05), 2, ErrCorrupt, "chunk 5, event at offset 35: producer 4 outside [0,4)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var dst ChunkSoA
			ref := ChunkRef{Offset: 30, Length: int64(len(tc.region)), Events: tc.events}
			err := decodeChunkRegion(tc.region, ref, eventCheck{nodes: 4, chunk: 5}, &dst)
			if err == nil {
				t.Fatalf("decodeChunkRegion accepted %x", tc.region)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("error %q should mention %q", err, tc.msg)
			}
		})
	}

	// The happy path the cases above are one byte away from.
	var dst ChunkSoA
	region := chunkRegion(1, 0x01, 0x02, 0x04, 0x03)
	if err := decodeChunkRegion(region, ChunkRef{Length: int64(len(region)), Events: 1, Start: 9}, eventCheck{nodes: 4}, &dst); err != nil {
		t.Fatal(err)
	}
	want := trace.Event{Seq: 9, Kind: 1, Node: 2, Block: 2, Producer: 2}
	if got := dst.Event(0); got != want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestBatchDecodeFuzzCorpus replays the checked-in fuzz counterexamples
// (testdata/fuzz, found by earlier fuzzing of the serial and indexed
// decoders) through the batch SoA decoder: every rejection must carry one of
// the codec's structured errors — never a panic, never a bare message — and
// any accepted input must decode to exactly the serial reader's events.
func TestBatchDecodeFuzzCorpus(t *testing.T) {
	var paths []string
	for _, fuzzer := range []string{"FuzzDecode", "FuzzDecodeIndexed"} {
		got, err := filepath.Glob(filepath.Join("testdata", "fuzz", fuzzer, "*"))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, got...)
	}
	if len(paths) == 0 {
		t.Fatal("no fuzz corpus files found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data := readFuzzCorpus(t, path)
			got, err := collectSoA(data)
			if err != nil {
				for _, structured := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrCorrupt, ErrNoIndex} {
					if errors.Is(err, structured) {
						return
					}
				}
				t.Fatalf("batch decode failed with an unstructured error: %v", err)
			}
			sr, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("batch decode accepted a stream the serial reader rejects at the header: %v", err)
			}
			want, err := Collect(sr)
			if err != nil {
				t.Fatalf("batch decode accepted a stream the serial reader rejects: %v", err)
			}
			if len(got) != want.Len() {
				t.Fatalf("batch decode yielded %d events, serial %d", len(got), want.Len())
			}
			for i := range got {
				if got[i] != want.Events[i] {
					t.Fatalf("event %d: batch %+v != serial %+v", i, got[i], want.Events[i])
				}
			}
		})
	}
}

// readFuzzCorpus parses one go-fuzz corpus file ("go test fuzz v1" header and
// a []byte literal per argument).
func readFuzzCorpus(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: unexpected corpus shape", path)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestMmapReadAtParity: the mmap view serves exactly the file's bytes with
// file-read semantics (short read past the end returns io.EOF), and the
// zero-copy Region fast path is bounds-checked.
func TestMmapReadAtParity(t *testing.T) {
	tr := randomTrace(500, 1)
	data := encodeChunked(t, tr, Meta{Workload: "db2", Nodes: 16}, 64)
	path := filepath.Join(t.TempDir(), "trace.tsm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenFileMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if runtime.GOOS == "linux" && !m.Mapped() {
		t.Fatal("mmap fell back to ReadAt on linux")
	}
	if m.Size() != int64(len(data)) {
		t.Fatalf("Size() = %d, want %d", m.Size(), len(data))
	}

	full := make([]byte, len(data))
	if n, err := m.ReadAt(full, 0); err != nil || n != len(data) {
		t.Fatalf("ReadAt(full) = %d, %v", n, err)
	}
	if !bytes.Equal(full, data) {
		t.Fatal("ReadAt returned different bytes than the file")
	}
	mid := make([]byte, 17)
	if _, err := m.ReadAt(mid, 31); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mid, data[31:48]) {
		t.Fatal("interior ReadAt returned different bytes than the file")
	}
	// Past-the-end semantics match a file read: short count plus io.EOF.
	tail := make([]byte, 10)
	if n, err := m.ReadAt(tail, m.Size()-3); err != io.EOF || n != 3 {
		t.Fatalf("ReadAt past end = %d, %v; want 3, io.EOF", n, err)
	}
	if n, err := m.ReadAt(tail, m.Size()); err != io.EOF || n != 0 {
		t.Fatalf("ReadAt at end = %d, %v; want 0, io.EOF", n, err)
	}

	if m.Mapped() {
		b, ok := m.Region(31, 17)
		if !ok || !bytes.Equal(b, data[31:48]) {
			t.Fatalf("Region(31, 17) = %x, %v", b, ok)
		}
		for _, r := range [][2]int64{{-1, 4}, {4, -1}, {m.Size(), 1}, {m.Size() - 3, 4}} {
			if _, ok := m.Region(r[0], r[1]); ok {
				t.Fatalf("Region(%d, %d) accepted an out-of-bounds range", r[0], r[1])
			}
		}
	}
}

// TestParallelDecodeMmapMatchesReadAt is the mmap differential: an mmap-fed
// parallel decode yields exactly the ReadAt-fed decode's events at several
// worker counts, full-range and ranged. On platforms without mmap support the
// mapping degrades to ReadAt and the test still pins the fallback.
func TestParallelDecodeMmapMatchesReadAt(t *testing.T) {
	tr := randomTrace(64*9+41, 5)
	meta := Meta{Workload: "ocean", Nodes: 16, Scale: 0.5, Seed: 7}
	data := encodeChunked(t, tr, meta, 64)
	path := filepath.Join(t.TempDir(), "trace.tsm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, rg := range [][2]uint64{{0, 0}, {100, 400}} {
		for _, workers := range []int{1, 4, 8} {
			opt := ParallelOptions{Workers: workers, From: rg[0], To: rg[1]}
			plain, err := OpenFileParallel(path, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := collectParallel(t, plain)
			if err := plain.Close(); err != nil {
				t.Fatal(err)
			}

			opt.Mmap = true
			mm, err := OpenFileParallel(path, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := collectParallel(t, mm)
			if err := mm.Close(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("range=%v workers=%d: mmap decode yielded %d events, ReadAt %d", rg, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("range=%v workers=%d event %d: mmap %+v != ReadAt %+v", rg, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDecodersRejectOutOfRangeEvents: an event whose node or producer is not
// below the header's node count, or whose kind is unknown, fails the serial
// reader, the parallel reader and the batch SoA walk with the same
// ErrCorrupt, naming the chunk index and the event's byte offset.
func TestDecodersRejectOutOfRangeEvents(t *testing.T) {
	meta := Meta{Workload: "db2", Nodes: 4, Scale: 0.25, Seed: 7}
	good := trace.Event{Kind: trace.KindConsumption, Node: 3, Block: 0x40, Producer: 3}
	for _, tc := range []struct {
		name string
		bad  trace.Event
		msg  string
	}{
		{"node", trace.Event{Kind: trace.KindWrite, Node: 4, Block: 0x40, Producer: mem.InvalidNode}, "node 4 outside [0,4)"},
		{"producer", trace.Event{Kind: trace.KindConsumption, Node: 1, Block: 0x40, Producer: 4}, "producer 4 outside [0,4)"},
		{"kind", trace.Event{Kind: 7, Node: 1, Block: 0x40, Producer: mem.InvalidNode}, "unknown event kind 7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Chunks of two events: the bad one is the first of chunk 2.
			data := encodeRejected(t, meta, []trace.Event{good, good, good, good, tc.bad, good}, 4)
			_, serialErr := Collect(mustReader(t, data))
			pr, err := OpenIndexed(bytes.NewReader(data), int64(len(data)), ParallelOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			_, parallelErr := Collect(pr)
			pr.Close()
			_, soaErr := collectSoA(data)
			for _, err := range []error{serialErr, parallelErr, soaErr} {
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "chunk 2, event at offset") || !strings.Contains(err.Error(), tc.msg) {
					t.Fatalf("err = %v, want ErrCorrupt naming chunk 2 and %q", err, tc.msg)
				}
			}
			if serialErr.Error() != parallelErr.Error() || serialErr.Error() != soaErr.Error() {
				t.Fatalf("decoders disagree:\nserial   %v\nparallel %v\nsoa      %v", serialErr, parallelErr, soaErr)
			}
		})
	}
}

// encodeRejected encodes events in chunks of two like encodeEvents, except
// that events[at], which must start a chunk, is written as a valid
// placeholder whose kind, node and producer bytes are then overwritten with
// its own: a stream the Writer refuses to produce. Each of those three
// fields must fit in one varint byte.
func encodeRejected(tb testing.TB, meta Meta, events []trace.Event, at int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		tb.Fatal(err)
	}
	w.perCh = 2
	var pos int64
	for i, e := range events {
		if i == at {
			pos = w.off + 1 // the chunk's start, past its event count
			e = trace.Event{Kind: trace.KindConsumption, Block: e.Block, Producer: mem.InvalidNode}
		}
		if err := w.Write(e); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	bad, data := events[at], buf.Bytes()
	data[pos] = byte(bad.Kind)
	data[pos+1] = byte(bad.Node)
	data[pos+2+int64(len(binary.AppendVarint(nil, int64(bad.Block))))] = byte(bad.Producer + 1)
	return data
}

func mustReader(t *testing.T, data []byte) *Reader {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return r
}
