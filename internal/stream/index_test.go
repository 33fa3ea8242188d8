package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"testing"

	"tsm/internal/trace"
)

// encodeChunked encodes tr at the current version with an explicit chunk
// size, so index tests get many chunks without huge traces.
func encodeChunked(t *testing.T, tr *trace.Trace, meta Meta, perCh int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	w.perCh = perCh
	if _, err := Copy(w, TraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// collectParallel drains a ParallelReader into a slice of events (with
// their Seq fields as yielded, not reassigned).
func collectParallel(t *testing.T, r *ParallelReader) []trace.Event {
	t.Helper()
	var out []trace.Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
}

// TestReadIndexRoundTrip: the footer written by the Writer decodes to an
// index whose chunks tile the stream exactly.
func TestReadIndexRoundTrip(t *testing.T) {
	tr := randomTrace(10*64+13, 5)
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 0.25, Seed: 42}
	data := encodeChunked(t, tr, meta, 64)
	pr := &posReader{r: newSliceScanner(data)}
	if _, _, err := parseHeader(pr); err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(bytes.NewReader(data), int64(len(data)), pr.n)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(tr.Len()); ix.Events != want {
		t.Fatalf("index counts %d events, want %d", ix.Events, want)
	}
	if want := (tr.Len() + 63) / 64; len(ix.Chunks) != want {
		t.Fatalf("index has %d chunks, want %d", len(ix.Chunks), want)
	}
	off := pr.n
	var seq uint64
	for i, c := range ix.Chunks {
		if c.Offset != off {
			t.Fatalf("chunk %d at offset %d, want %d (chunks must tile)", i, c.Offset, off)
		}
		if c.Start != seq {
			t.Fatalf("chunk %d starts at seq %d, want %d", i, c.Start, seq)
		}
		off += c.Length
		seq += c.Events
	}
	if ix.End != off {
		t.Fatalf("end marker at %d, want %d", ix.End, off)
	}
}

// TestParallelDecodeMatchesSerial is the core differential: for several
// worker counts and chunk sizes, the parallel reader yields exactly the
// serial reader's event sequence, sequence numbers included.
func TestParallelDecodeMatchesSerial(t *testing.T) {
	meta := Meta{Workload: "ocean", Nodes: 16, Scale: 0.5, Seed: 7}
	for _, n := range []int{0, 1, 63, 64, 65, 64*7 + 11} {
		tr := randomTrace(n, int64(n)+3)
		data := encodeChunked(t, tr, meta, 64)
		serial, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Collect(serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			r, err := OpenIndexed(bytes.NewReader(data), int64(len(data)), ParallelOptions{Workers: workers})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if r.Meta() != meta {
				t.Fatalf("meta = %+v, want %+v", r.Meta(), meta)
			}
			got := collectParallel(t, r)
			if len(got) != want.Len() {
				t.Fatalf("n=%d workers=%d: %d events, want %d", n, workers, len(got), want.Len())
			}
			for i := range got {
				if got[i] != want.Events[i] {
					t.Fatalf("n=%d workers=%d: event %d = %+v, want %+v", n, workers, i, got[i], want.Events[i])
				}
			}
			if f := r.Fraction(); n > 0 && f != 1 {
				t.Fatalf("n=%d workers=%d: Fraction() = %v after drain, want 1", n, workers, f)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestParallelDecodeRange: [From, To) selects exactly the sub-slice of the
// full event sequence, with original sequence numbers preserved.
func TestParallelDecodeRange(t *testing.T) {
	const perCh = 64
	tr := randomTrace(perCh*5+17, 9)
	meta := Meta{Workload: "zeus", Nodes: 16, Scale: 1, Seed: 2}
	data := encodeChunked(t, tr, meta, perCh)
	serial, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Collect(serial)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(tr.Len())
	ranges := [][2]uint64{
		{0, 0},                 // whole stream
		{0, 1},                 // first event only
		{n - 1, n},             // last event only
		{perCh, 2 * perCh},     // exactly one chunk
		{perCh - 1, perCh + 1}, // straddles a boundary
		{17, n - 23},           // arbitrary interior
		{n, 0},                 // empty tail
		{n + 100, 0},           // past the end
	}
	for _, rg := range ranges {
		from, to := rg[0], rg[1]
		r, err := OpenIndexed(bytes.NewReader(data), int64(len(data)), ParallelOptions{Workers: 3, From: from, To: to})
		if err != nil {
			t.Fatalf("[%d,%d): %v", from, to, err)
		}
		got := collectParallel(t, r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		hi := n
		if to > 0 && to < hi {
			hi = to
		}
		lo := from
		if lo > hi {
			lo = hi
		}
		want := full.Events[lo:hi]
		if len(got) != len(want) {
			t.Fatalf("[%d,%d): %d events, want %d", from, to, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%d,%d): event %d = %+v, want %+v (Seq must be the full-trace Seq)", from, to, i, got[i], want[i])
			}
		}
	}
	// An inverted range is an error up front.
	if _, err := OpenIndexed(bytes.NewReader(data), int64(len(data)), ParallelOptions{From: 10, To: 5}); err == nil {
		t.Fatal("inverted range must fail to open")
	}
}

// TestOpenIndexedRejectsOldVersions: v1/v2 streams have no index; the
// seeking open must fail with ErrNoIndex so callers fall back to serial.
func TestOpenIndexedRejectsOldVersions(t *testing.T) {
	tr := randomTrace(100, 3)
	data := encodeV(t, tr, Meta{Nodes: 16, Scale: 1, Seed: 1}, VersionNoIndex)
	if _, err := OpenIndexed(bytes.NewReader(data), int64(len(data)), ParallelOptions{}); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("err = %v, want ErrNoIndex", err)
	}
}

// TestReadIndexRejectsCorruption: every way the footer can lie about the
// stream must fail with ErrCorrupt/ErrTruncated at open or decode time,
// never decode silently wrong.
func TestReadIndexRejectsCorruption(t *testing.T) {
	const perCh = 64
	tr := randomTrace(perCh*4+5, 11)
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 0.25, Seed: 42}
	data := encodeChunked(t, tr, meta, perCh)

	open := func(b []byte) (*ParallelReader, error) {
		return OpenIndexed(bytes.NewReader(b), int64(len(b)), ParallelOptions{Workers: 2})
	}
	mustFailStructured := func(name string, b []byte) {
		t.Helper()
		r, err := open(b)
		if err == nil {
			_, err = Collect(r)
			r.Close()
		}
		if err == nil || !(errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated)) {
			t.Errorf("%s: err = %v, want ErrCorrupt/ErrTruncated", name, err)
		}
	}

	// Bad footer magic.
	bad := append([]byte{}, data...)
	bad[len(bad)-1] ^= 0xff
	mustFailStructured("bad magic", bad)

	// Truncated mid-footer.
	mustFailStructured("truncated footer", data[:len(data)-6])

	// Footer length pointing outside the file.
	bad = append([]byte{}, data...)
	binary.LittleEndian.PutUint64(bad[len(bad)-12:], uint64(len(bad)))
	mustFailStructured("oversized payload length", bad)

	// An offset past EOF: rewrite the footer with a huge first offset.
	ix := mustIndex(t, data)
	forged := forgeFooter(t, data, func(chunks []ChunkRef) []ChunkRef {
		chunks[0].Offset = int64(len(data)) + 1000
		return chunks[:1]
	}, ix.End)
	mustFailStructured("offset past EOF", forged)

	// An offset into the middle of a chunk: the count there is garbage
	// relative to the index, so decode must fail, not yield shifted events.
	forged = forgeFooter(t, data, func(chunks []ChunkRef) []ChunkRef {
		chunks[1].Offset += 3
		return chunks
	}, ix.End)
	mustFailStructured("offset mid-chunk", forged)

	// Event counts that disagree with the trailer.
	forged = forgeFooter(t, data, func(chunks []ChunkRef) []ChunkRef {
		chunks[0].Events++
		return chunks
	}, ix.End)
	mustFailStructured("count mismatch", forged)
}

// mustIndex parses the header and index of a v3 stream.
func mustIndex(t *testing.T, data []byte) *Index {
	t.Helper()
	pr := &posReader{r: newSliceScanner(data)}
	if _, _, err := parseHeader(pr); err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(bytes.NewReader(data), int64(len(data)), pr.n)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// forgeFooter rewrites data's footer with a mutated chunk table, keeping
// everything before the footer intact.
func forgeFooter(t *testing.T, data []byte, mutate func([]ChunkRef) []ChunkRef, end int64) []byte {
	t.Helper()
	ix := mustIndex(t, data)
	suffix := binary.LittleEndian.Uint64(data[len(data)-12 : len(data)-4])
	body := data[:len(data)-12-int(suffix)]
	chunks := mutate(append([]ChunkRef{}, ix.Chunks...))
	return appendFooter(append([]byte{}, body...), chunks, end)
}

// TestParallelDecodeBoundedAlloc pins the free-list property: decoding a
// many-chunk file must allocate event-buffer memory proportional to the
// worker count and chunk size, not to the number of chunks — i.e. far less
// than materializing the trace would.
func TestParallelDecodeBoundedAlloc(t *testing.T) {
	const perCh = 512
	tr := randomTrace(perCh*96, 13) // 96 chunks, ~1.5 MiB materialized
	data := encodeChunked(t, tr, Meta{Nodes: 16, Scale: 1, Seed: 1}, perCh)
	materialized := uint64(tr.Len()) * uint64(48) // ~sizeof(trace.Event)

	r, err := OpenIndexed(bytes.NewReader(data), int64(len(data)), ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var n int
	for {
		if _, err := r.Next(); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		n++
	}
	runtime.ReadMemStats(&after)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n != tr.Len() {
		t.Fatalf("decoded %d events, want %d", n, tr.Len())
	}
	// Generous bound: well under half of what materializing all chunks
	// would take. With the free list, steady-state allocation is a handful
	// of chunk buffers plus per-chunk bookkeeping.
	if delta := after.TotalAlloc - before.TotalAlloc; delta > materialized/2 {
		t.Fatalf("decode allocated %d bytes for %d chunks (materialized ≈ %d); buffers are not recycling", delta, 96, materialized)
	}
}

// TestParallelDecodeEarlyClose: closing mid-stream must release the workers
// without wedging, and subsequent reads must fail.
func TestParallelDecodeEarlyClose(t *testing.T) {
	const perCh = 64
	tr := randomTrace(perCh*32, 15)
	data := encodeChunked(t, tr, Meta{Nodes: 16, Scale: 1, Seed: 1}, perCh)
	r, err := OpenIndexed(bytes.NewReader(data), int64(len(data)), ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
}

// TestFileReaderParallel: the OpenFileParallel path over a real file, and
// its ErrNoIndex fallback contract for a v2 file.
func TestFileReaderParallel(t *testing.T) {
	tr := randomTrace(3*DefaultChunkEvents+7, 19)
	meta := Meta{Workload: "apache", Nodes: 16, Scale: 0.5, Seed: 3}
	dir := t.TempDir()
	path := dir + "/t.tsm"
	if _, err := WriteFile(path, meta, TraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileParallel(path, ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := collectParallel(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != tr.Len() {
		t.Fatalf("decoded %d events, want %d", len(got), tr.Len())
	}

	// A v2 file opens serially only.
	v2 := dir + "/v2.tsm"
	f, err := os.Create(v2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriterVersion(f, meta, VersionNoIndex)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Copy(w, TraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileParallel(v2, ParallelOptions{}); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("v2 file: err = %v, want ErrNoIndex", err)
	}
	fr, err := OpenFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := Collect(fr)
	if err := CloseMerge(fr, err); err != nil {
		t.Fatal(err)
	}
	if got2.Len() != tr.Len() {
		t.Fatalf("serial fallback decoded %d events, want %d", got2.Len(), tr.Len())
	}
}
