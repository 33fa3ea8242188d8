// The binary trace codec. Format (all integers varint-encoded unless noted):
//
//	magic   "TSMS" (4 bytes)
//	version 1 byte (currently Version)
//	meta    workload name (uvarint length + bytes), nodes (uvarint),
//	        scale (8 bytes, IEEE 754 little endian), seed (zigzag varint),
//	        repeat (8 bytes, IEEE 754 little endian; version ≥ 2 only —
//	          version 1 streams decode with Repeat 0, i.e. the default)
//	chunks  repeated: event count n (uvarint, n > 0), then n events:
//	          kind (1 byte)
//	          node (uvarint)
//	          block delta (zigzag varint, relative to the previous event's
//	            block within the chunk; the first event of a chunk is
//	            relative to zero, so chunks decode independently)
//	          producer+1 (uvarint; mem.InvalidNode encodes as 0)
//	end     a zero chunk count, then the total event count (uvarint)
//	footer  version ≥ 3 only: the chunk index (see index.go) — a payload of
//	          chunk count (uvarint), then per chunk the file offset
//	          (uvarint, delta from the previous chunk's offset; the first
//	          is absolute) and event count (uvarint), then the end-marker
//	          offset (uvarint, delta from the last chunk's offset) —
//	          followed by the payload length (8 bytes little endian) and
//	          the footer magic "TSMI", so a seeking reader locates the
//	          index from the end of the file without decoding the stream
//
// A stream ends immediately after its trailer (v1/v2) or footer (v3):
// readers verify EOF and fail with ErrCorrupt on trailing bytes, so a
// concatenated or padded file cannot silently decode as a shorter trace.
//
// Sequence numbers are not stored: they are implicit in stream order. Delta
// encoding matters because consecutive consumptions in a stream are near one
// another in the address space, so most block deltas fit in one or two
// bytes instead of eight. Block deltas reset at chunk boundaries, so each
// chunk decodes independently — which is what the chunk index exploits for
// seeking (partial replay) and parallel-by-chunk decode (pdecode.go).
package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync/atomic"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// Magic identifies the streamed trace format (distinct from the legacy
// fixed-width "TSM1" format in internal/trace).
var Magic = [4]byte{'T', 'S', 'M', 'S'}

// Version is the current codec version. Writers emit it by default; readers
// also accept version 2 (no chunk-index footer) and version 1 (additionally
// lacks the repeat metadata field) so older traces stay replayable — they
// just decode serially, since only version ≥ 3 carries the index that
// seeking and parallel decode need.
const Version = 3

// VersionNoIndex is the last codec version without the chunk-index footer.
// NewWriterVersion can still emit it (tracegen -no-index), keeping the
// serial fallback path exercised end to end.
const VersionNoIndex = 2

// versionNoRepeat is the last codec version without the repeat meta field.
const versionNoRepeat = 1

// DefaultChunkEvents is the number of events buffered per chunk.
const DefaultChunkEvents = 4096

// maxChunkEvents bounds the per-chunk allocation a reader will make, so a
// corrupt count cannot trigger a huge allocation.
const maxChunkEvents = 1 << 20

// maxMetaNodes and maxMetaScale bound the decoded metadata: a corrupt
// header must fail with ErrCorrupt, not propagate absurd parameters into
// generator reconstruction (where a huge node count would try to allocate).
const (
	maxMetaNodes = 1 << 16
	maxMetaScale = 1e6
)

// ErrBadMagic is returned when a stream does not start with Magic.
var ErrBadMagic = errors.New("stream: bad magic (not a TSMS trace)")

// ErrVersion is returned (wrapped, with the found version) when the codec
// version is unsupported.
var ErrVersion = errors.New("stream: unsupported trace version")

// ErrTruncated is returned (wrapped) when a stream ends before its
// end-of-stream marker and trailer.
var ErrTruncated = errors.New("stream: truncated trace")

// ErrCorrupt is returned (wrapped) when a structurally invalid value is
// decoded.
var ErrCorrupt = errors.New("stream: corrupt trace")

// Meta describes how a trace was generated, so a separate process can
// reconstruct the matching generator (for timing profiles) and evaluation
// options without re-running generation.
type Meta struct {
	// Workload is the canonical lower-case workload name ("db2", "em3d"...).
	// Empty for traces that did not come from the workload suite.
	Workload string
	// Nodes is the number of DSM nodes the trace was generated with.
	Nodes int
	// Scale is the workload scale factor.
	Scale float64
	// Seed is the generation seed.
	Seed int64
	// Repeat is the run-length multiplier the trace was generated with
	// (workload.Config.Repeat). Zero means the default of 1 — the value
	// version 1 streams decode with.
	Repeat float64
}

// String summarises the metadata in one line.
func (m Meta) String() string {
	name := m.Workload
	if name == "" {
		name = "(custom)"
	}
	s := fmt.Sprintf("%s nodes=%d scale=%g seed=%d", name, m.Nodes, m.Scale, m.Seed)
	if m.Repeat > 0 && m.Repeat != 1 {
		s += fmt.Sprintf(" repeat=%g", m.Repeat)
	}
	return s
}

// Writer encodes events into the chunked binary format. It implements Sink;
// Close emits the end-of-stream marker and trailer, so a Writer that is not
// closed produces a stream Readers reject as truncated.
type Writer struct {
	w       *bufio.Writer
	chunk   []trace.Event
	scratch []byte
	count   uint64
	perCh   int
	version byte
	nodes   uint64     // Meta.Nodes, which every event's node must be below
	chunks  int        // chunks flushed so far
	off     int64      // bytes emitted so far (header + flushed chunks)
	index   []ChunkRef // offset/count per flushed chunk (version ≥ 3)
	closed  bool
	err     error
}

// NewWriter writes the header and metadata and returns a Writer emitting
// the current codec version (indexed).
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	return NewWriterVersion(w, meta, Version)
}

// NewWriterVersion is NewWriter with an explicit codec version, so older
// formats (version 2: no chunk-index footer; version 1: additionally no
// repeat field) can still be produced for back-compat testing and for
// consumers that stream rather than seek.
func NewWriterVersion(w io.Writer, meta Meta, version byte) (*Writer, error) {
	if version < versionNoRepeat || version > Version {
		return nil, fmt.Errorf("%w: cannot write version %d", ErrVersion, version)
	}
	bw := bufio.NewWriter(w)
	hdr := make([]byte, 0, 64)
	hdr = append(hdr, Magic[:]...)
	hdr = append(hdr, version)
	name := strings.ToLower(meta.Workload)
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.AppendUvarint(hdr, uint64(meta.Nodes))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(meta.Scale))
	hdr = binary.AppendVarint(hdr, meta.Seed)
	if version > versionNoRepeat {
		hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(meta.Repeat))
	}
	if _, err := bw.Write(hdr); err != nil {
		return nil, fmt.Errorf("stream: writing header: %w", err)
	}
	return &Writer{w: bw, perCh: DefaultChunkEvents, version: version, nodes: uint64(meta.Nodes), off: int64(len(hdr))}, nil
}

// Write implements Sink. The event's Seq field is not stored. The count is
// only advanced once the event is safely buffered AND any chunk flush it
// triggered succeeded, so after a write error Count() agrees with what
// actually hit the wire instead of drifting ahead of it. An event whose
// kind is unknown or whose node or producer is outside [0, Meta.Nodes) fails
// the flush of its chunk with ErrCorrupt, as a reader would.
func (w *Writer) Write(e trace.Event) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = errors.New("stream: write after Close")
		return w.err
	}
	w.chunk = append(w.chunk, e)
	if len(w.chunk) >= w.perCh {
		if err := w.flushChunk(); err != nil {
			return err
		}
	}
	w.count++
	return nil
}

// flushChunk encodes and emits the buffered events as one chunk, recording
// its file offset in the index.
func (w *Writer) flushChunk() error {
	if len(w.chunk) == 0 {
		return nil
	}
	buf := w.scratch[:0]
	buf = binary.AppendUvarint(buf, uint64(len(w.chunk)))
	prev := uint64(0)
	c := eventCheck{nodes: w.nodes, chunk: w.chunks}
	for _, e := range w.chunk {
		// Refuse an event the readers would reject, so that every file
		// written can be read back.
		node, prod := uint64(e.Node), uint64(int64(e.Producer)+1)
		if err := c.check(byte(e.Kind), node, prod, w.off+int64(len(buf))); err != nil {
			w.err = fmt.Errorf("stream: refusing to write an unreadable event: %w", err)
			return w.err
		}
		buf = append(buf, byte(e.Kind))
		buf = binary.AppendUvarint(buf, node)
		buf = binary.AppendVarint(buf, int64(uint64(e.Block)-prev))
		prev = uint64(e.Block)
		buf = binary.AppendUvarint(buf, prod)
	}
	if w.version >= Version {
		w.index = append(w.index, ChunkRef{Offset: w.off, Events: uint64(len(w.chunk))})
	}
	w.scratch = buf[:0]
	w.chunk = w.chunk[:0]
	w.chunks++
	if _, err := w.w.Write(buf); err != nil {
		w.err = fmt.Errorf("stream: writing chunk: %w", err)
		return w.err
	}
	w.off += int64(len(buf))
	return nil
}

// Count returns the number of events durably accepted so far: events whose
// chunk flush failed are not counted, so the figure never runs ahead of the
// stream's actual contents.
func (w *Writer) Count() uint64 { return w.count }

// Close flushes the final chunk, writes the end-of-stream marker, the
// event-count trailer and (version ≥ 3) the chunk-index footer, then
// flushes the underlying buffer. It implements Sink and is idempotent.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flushChunk(); err != nil {
		return err
	}
	end := w.off
	tail := binary.AppendUvarint(nil, 0)
	tail = binary.AppendUvarint(tail, w.count)
	if w.version >= Version {
		tail = appendFooter(tail, w.index, end)
	}
	if _, err := w.w.Write(tail); err != nil {
		w.err = fmt.Errorf("stream: writing trailer: %w", err)
		return w.err
	}
	w.off += int64(len(tail))
	if err := w.w.Flush(); err != nil {
		w.err = fmt.Errorf("stream: flushing: %w", err)
		return w.err
	}
	return nil
}

// Reader decodes a stream produced by Writer. It implements Source (and
// ChunkSource: NextChunk hands out whole decoded chunks).
type Reader struct {
	r       *posReader
	meta    Meta
	version byte
	chunk   []trace.Event
	pos     int
	next    uint64
	chunks  uint64 // chunks decoded so far (cross-checked against the footer)
	// refs records each decoded chunk's byte offset and event count on
	// version ≥ 3 streams, so verifyFooter can check the footer entry for
	// entry against what was actually decoded — a footer that merely sums
	// right but points elsewhere is corruption, not a cosmetic defect,
	// because seeking readers trust those offsets. ~32 bytes per multi-KB
	// chunk, so the streaming decode stays effectively O(chunk) memory.
	refs   []ChunkRef
	endOff int64 // byte offset of the end marker
	done   bool
}

// byteScanner is the reader shape header/footer parsing needs: bufio.Reader
// satisfies it, as does any test reader.
type byteScanner interface {
	io.Reader
	io.ByteReader
}

// posReader counts consumed bytes so callers learn the header length — the
// seeking open path needs it to know where chunk data begins.
type posReader struct {
	r byteScanner
	n int64
}

func (p *posReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.n += int64(n)
	return n, err
}

func (p *posReader) ReadByte() (byte, error) {
	b, err := p.r.ReadByte()
	if err == nil {
		p.n++
	}
	return b, err
}

// NewReader validates the header, decodes the metadata and returns a
// Reader. It fails with ErrBadMagic or a wrapped ErrVersion on foreign or
// incompatible streams.
func NewReader(r io.Reader) (*Reader, error) {
	pr := &posReader{r: bufio.NewReader(r)}
	meta, version, err := parseHeader(pr)
	if err != nil {
		return nil, err
	}
	return &Reader{r: pr, meta: meta, version: version}, nil
}

// parseHeader decodes the magic, version byte and metadata block.
func parseHeader(pr *posReader) (Meta, byte, error) {
	var meta Meta
	var hdr [5]byte
	if _, err := io.ReadFull(pr, hdr[:]); err != nil {
		return meta, 0, fmt.Errorf("stream: reading header: %w", errTrunc(err))
	}
	if *(*[4]byte)(hdr[:4]) != Magic {
		return meta, 0, ErrBadMagic
	}
	version := hdr[4]
	if version < versionNoRepeat || version > Version {
		return meta, 0, fmt.Errorf("%w: got %d, want %d..%d", ErrVersion, version, versionNoRepeat, Version)
	}
	n, err := binary.ReadUvarint(pr)
	if err != nil {
		return meta, 0, fmt.Errorf("stream: reading metadata: %w", errTrunc(err))
	}
	if n > 1024 {
		return meta, 0, fmt.Errorf("%w: workload name length %d", ErrCorrupt, n)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(pr, name); err != nil {
		return meta, 0, fmt.Errorf("stream: reading metadata: %w", errTrunc(err))
	}
	meta.Workload = string(name)
	nodes, err := binary.ReadUvarint(pr)
	if err != nil {
		return meta, 0, fmt.Errorf("stream: reading metadata: %w", errTrunc(err))
	}
	if nodes > maxMetaNodes {
		return meta, 0, fmt.Errorf("%w: node count %d", ErrCorrupt, nodes)
	}
	meta.Nodes = int(nodes)
	var scale [8]byte
	if _, err := io.ReadFull(pr, scale[:]); err != nil {
		return meta, 0, fmt.Errorf("stream: reading metadata: %w", errTrunc(err))
	}
	meta.Scale = math.Float64frombits(binary.LittleEndian.Uint64(scale[:]))
	if math.IsNaN(meta.Scale) || math.IsInf(meta.Scale, 0) || meta.Scale < 0 || meta.Scale > maxMetaScale {
		return meta, 0, fmt.Errorf("%w: scale %v", ErrCorrupt, meta.Scale)
	}
	seed, err := binary.ReadVarint(pr)
	if err != nil {
		return meta, 0, fmt.Errorf("stream: reading metadata: %w", errTrunc(err))
	}
	meta.Seed = seed
	if version > versionNoRepeat {
		var repeat [8]byte
		if _, err := io.ReadFull(pr, repeat[:]); err != nil {
			return meta, 0, fmt.Errorf("stream: reading metadata: %w", errTrunc(err))
		}
		meta.Repeat = math.Float64frombits(binary.LittleEndian.Uint64(repeat[:]))
		if math.IsNaN(meta.Repeat) || math.IsInf(meta.Repeat, 0) || meta.Repeat < 0 || meta.Repeat > maxMetaScale {
			return meta, 0, fmt.Errorf("%w: repeat %v", ErrCorrupt, meta.Repeat)
		}
	}
	return meta, version, nil
}

// errTrunc maps any EOF while structure remains expected to ErrTruncated,
// and a varint that overflows 64 bits (an unstructured errors.New deep in
// encoding/binary) to ErrCorrupt — both are malformed-input conditions the
// decoder's callers must be able to errors.Is against.
func errTrunc(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	if err != nil && strings.Contains(err.Error(), "varint overflows") {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return err
}

// Meta returns the stream metadata decoded from the header.
func (r *Reader) Meta() Meta { return r.meta }

// Next implements Source, returning io.EOF after the last event of a
// well-formed stream and a wrapped ErrTruncated/ErrCorrupt otherwise.
func (r *Reader) Next() (trace.Event, error) {
	for r.pos >= len(r.chunk) {
		if r.done {
			return trace.Event{}, io.EOF
		}
		if err := r.readChunk(); err != nil {
			return trace.Event{}, err
		}
	}
	e := r.chunk[r.pos]
	e.Seq = r.next
	r.pos++
	r.next++
	return e, nil
}

// NextChunk implements ChunkSource: it returns the remaining events of the
// current chunk (decoding the next one if exhausted) with sequence numbers
// assigned, or io.EOF after the last. The returned slice is only valid
// until the next NextChunk/Next call.
func (r *Reader) NextChunk() ([]trace.Event, error) {
	for r.pos >= len(r.chunk) {
		if r.done {
			return nil, io.EOF
		}
		if err := r.readChunk(); err != nil {
			return nil, err
		}
	}
	out := r.chunk[r.pos:]
	for i := range out {
		out[i].Seq = r.next
		r.next++
	}
	r.pos = len(r.chunk)
	return out, nil
}

// readChunk decodes the next chunk, or verifies the trailer (and, for
// version ≥ 3, the footer) on the end marker.
func (r *Reader) readChunk() error {
	start := r.r.n // offset of the chunk's count uvarint (or the end marker)
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		return fmt.Errorf("stream: reading chunk count: %w", errTrunc(err))
	}
	if n == 0 {
		r.endOff = start
		total, err := binary.ReadUvarint(r.r)
		if err != nil {
			return fmt.Errorf("stream: reading trailer: %w", errTrunc(err))
		}
		if total != r.next {
			return fmt.Errorf("%w: trailer count %d, decoded %d events", ErrCorrupt, total, r.next)
		}
		if err := r.verifyEnd(); err != nil {
			return err
		}
		r.done = true
		r.chunk = r.chunk[:0]
		r.pos = 0
		return nil
	}
	if n > maxChunkEvents {
		return fmt.Errorf("%w: chunk of %d events", ErrCorrupt, n)
	}
	if cap(r.chunk) < int(n) {
		r.chunk = make([]trace.Event, 0, n)
	}
	r.pos = 0
	r.chunk, err = appendChunkEvents(r.r, n, eventCheck{nodes: uint64(r.meta.Nodes), chunk: int(r.chunks)}, r.chunk[:0])
	if err != nil {
		return err
	}
	r.chunks++
	if r.version >= Version {
		r.refs = append(r.refs, ChunkRef{Offset: start, Events: n})
	}
	return nil
}

// verifyEnd enforces that the stream actually ends where the format says it
// does. A version ≥ 3 stream must carry a footer consistent with the chunks
// just decoded; every version must then hit EOF — trailing bytes mean a
// concatenated, padded or mis-framed file and fail with ErrCorrupt instead
// of being silently ignored.
func (r *Reader) verifyEnd() error {
	if r.version >= Version {
		if err := r.verifyFooter(); err != nil {
			return err
		}
	}
	if _, err := r.r.ReadByte(); err != io.EOF {
		if err != nil {
			return fmt.Errorf("stream: reading end of stream: %w", err)
		}
		return fmt.Errorf("%w: trailing data after end of stream", ErrCorrupt)
	}
	return nil
}

// verifyFooter decodes the chunk-index footer in stream order and checks
// every entry — offset AND event count — against the chunks actually
// decoded, plus the end-marker offset, the totals, the payload length and
// the magic. A footer whose totals sum right but whose offsets point
// elsewhere would send seeking readers to arbitrary bytes, so the streaming
// reader rejects it just as the seeking reader (ReadIndex) does: both paths
// accept exactly the same files.
func (r *Reader) verifyFooter() error {
	pr := &posReader{r: r.r}
	count, sum, end, err := walkFooterPayload(pr, func(i int, offset int64, events uint64) error {
		if i >= len(r.refs) {
			return nil // chunk-count mismatch, reported below
		}
		if ref := r.refs[i]; offset != ref.Offset || events != ref.Events {
			return fmt.Errorf("%w: footer chunk %d is offset %d/%d events, decoded offset %d/%d events",
				ErrCorrupt, i, offset, events, ref.Offset, ref.Events)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if count != r.chunks {
		return fmt.Errorf("%w: footer indexes %d chunks, decoded %d", ErrCorrupt, count, r.chunks)
	}
	if sum != r.next {
		return fmt.Errorf("%w: footer counts %d events, decoded %d", ErrCorrupt, sum, r.next)
	}
	if end != r.endOff {
		return fmt.Errorf("%w: footer end offset %d, end marker decoded at %d", ErrCorrupt, end, r.endOff)
	}
	var suffix [indexSuffixLen]byte
	if _, err := io.ReadFull(r.r, suffix[:]); err != nil {
		return fmt.Errorf("stream: reading footer suffix: %w", errTrunc(err))
	}
	if payloadLen := binary.LittleEndian.Uint64(suffix[:8]); payloadLen != uint64(pr.n) {
		return fmt.Errorf("%w: footer length %d, decoded %d bytes", ErrCorrupt, payloadLen, pr.n)
	}
	if *(*[4]byte)(suffix[8:]) != IndexMagic {
		return fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	return nil
}

// eventCheck validates decoded events against the stream's metadata. Every
// decode path — the streaming Reader, the indexed parallel reader and the
// batch struct-of-arrays walk, mmap-backed or not — runs each event through
// check, so they accept and reject exactly the same files, and no model
// downstream sees a node it has no state for.
type eventCheck struct {
	nodes uint64 // the stream's node count (Meta.Nodes)
	chunk int    // index of the chunk being decoded
}

// check returns nil for an event whose kind is known and whose node and
// producer (encoded +1, 0 for none) are below the stream's node count, and
// otherwise a wrapped ErrCorrupt naming the chunk and the event's byte
// offset in the stream.
func (c eventCheck) check(kind byte, node, prod uint64, offset int64) error {
	if kind <= byte(trace.KindReadMiss) && node < c.nodes && prod <= c.nodes {
		return nil
	}
	return c.reject(kind, node, prod, offset)
}

// reject builds check's error, out of line so that check inlines into the
// decode loops.
func (c eventCheck) reject(kind byte, node, prod uint64, offset int64) error {
	var what string
	switch {
	case kind > byte(trace.KindReadMiss):
		what = fmt.Sprintf("unknown event kind %d", kind)
	case node >= c.nodes:
		what = fmt.Sprintf("node %d outside [0,%d)", node, c.nodes)
	default:
		what = fmt.Sprintf("producer %d outside [0,%d)", prod-1, c.nodes)
	}
	return fmt.Errorf("%w: chunk %d, event at offset %d: %s", ErrCorrupt, c.chunk, offset, what)
}

// appendChunkEvents decodes and checks n delta-reset events from r,
// appending them to dst. It is the streaming Reader's decoder; the indexed
// paths use appendChunkSoA.
func appendChunkEvents(r *posReader, n uint64, c eventCheck, dst []trace.Event) ([]trace.Event, error) {
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		start := r.n
		kind, err := r.ReadByte()
		if err != nil {
			return dst, fmt.Errorf("stream: reading event kind: %w", errTrunc(err))
		}
		node, err := binary.ReadUvarint(r)
		if err != nil {
			return dst, fmt.Errorf("stream: reading event node: %w", errTrunc(err))
		}
		delta, err := binary.ReadVarint(r)
		if err != nil {
			return dst, fmt.Errorf("stream: reading event block: %w", errTrunc(err))
		}
		prev += uint64(delta)
		prod, err := binary.ReadUvarint(r)
		if err != nil {
			return dst, fmt.Errorf("stream: reading event producer: %w", errTrunc(err))
		}
		if err := c.check(kind, node, prod, start); err != nil {
			return dst, err
		}
		dst = append(dst, trace.Event{
			Kind:     trace.EventKind(kind),
			Node:     mem.NodeID(node),
			Block:    mem.BlockAddr(prev),
			Producer: mem.NodeID(int64(prod) - 1),
		})
	}
	return dst, nil
}

// WriteFile streams src into a new trace file at path, fsync-free but fully
// flushed and closed.
func WriteFile(path string, meta Meta, src Source) (n uint64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() { err = CloseMerge(f, err) }()
	w, err := NewWriter(f, meta)
	if err != nil {
		return 0, err
	}
	if n, err = Copy(w, src); err != nil {
		return n, err
	}
	return n, w.Close()
}

// countingReader counts the bytes handed to the decode buffer with an
// atomic, so another goroutine (a progress meter) can read the position
// without racing the decoding goroutine — unlike Seek-based position
// queries, which would.
type countingReader struct {
	r io.Reader
	n atomic.Uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

// FileReader is a Reader over an open trace file.
type FileReader struct {
	*Reader
	f     *os.File
	count *countingReader
	size  int64
}

// OpenFile opens path for streaming reads. The caller must Close it.
func OpenFile(path string) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var size int64
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	count := &countingReader{r: f}
	r, err := NewReader(count)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileReader{Reader: r, f: f, count: count, size: size}, nil
}

// Fraction reports the file fraction consumed by the decoder so far, in
// [0, 1] — suitable as a completion estimate for progress/ETA reporting.
// Safe to call from any goroutine while another decodes; returns 0 when the
// file size is unknown.
func (r *FileReader) Fraction() float64 {
	if r.size <= 0 {
		return 0
	}
	f := float64(r.count.n.Load()) / float64(r.size)
	if f > 1 {
		f = 1
	}
	return f
}

// Close closes the underlying file.
func (r *FileReader) Close() error { return r.f.Close() }

// LoadFile reads a whole trace file into memory.
func LoadFile(path string) (*trace.Trace, Meta, error) {
	r, err := OpenFile(path)
	if err != nil {
		return nil, Meta{}, err
	}
	tr, err := Collect(r)
	if err = CloseMerge(r, err); err != nil {
		return nil, r.Meta(), err
	}
	return tr, r.Meta(), nil
}
