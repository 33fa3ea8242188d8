// Parallel-by-chunk decode over the chunk index. Chunks are delta-reset at
// their boundaries (codec.go), so each decodes independently: a dispatcher
// hands chunk refs to N workers in stream order while enqueueing each
// chunk's one-shot result channel onto a bounded window, and the consumer
// drains the window in order — parallel execution, serial-identical output.
// Each worker reads a chunk's bytes as one contiguous region (a single
// ReadAt into a reusable scratch buffer, or a zero-copy view of mmap'd
// pages) and batch-decodes it into a struct-of-arrays ChunkSoA region
// (soa.go) with index-based varint arithmetic — no io.ByteReader dispatch.
// SoA regions recycle through a free list, so decode allocates
// O(workers·chunk), not O(chunks).
package stream

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tsm/internal/obs"
	"tsm/internal/trace"
)

// decodeWorkerLane0 is the tracer lane of the first decode worker. Pipeline
// lanes are 0 (producer) and 1..N (consumers); decode workers sit far above
// so the two groups never collide even for wide sweeps.
const decodeWorkerLane0 = 1000

// ParallelOptions configures an indexed (seeking, parallel) trace open.
type ParallelOptions struct {
	// Workers is the number of decode goroutines. Zero or negative selects
	// one per core (Workers(0)); one still uses the indexed path — useful
	// with From/To — just without decode concurrency.
	Workers int
	// From and To bound replay to events with sequence numbers in
	// [From, To); To == 0 means the end of the trace. Events keep the
	// sequence numbers they have in the full trace.
	From, To uint64
	// Mmap maps the file into memory (OpenFileMmap) instead of issuing a
	// ReadAt per chunk, letting workers decode straight out of the mapped
	// pages. Only honoured by OpenFileParallel (OpenIndexed takes whatever
	// io.ReaderAt it is given); on platforms without mmap support the flag
	// silently falls back to ReadAt, producing identical output.
	Mmap bool
	// Metrics, when non-nil, receives per-worker and aggregate decode
	// counters (stream.decode.*).
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one span per decoded chunk on a lane
	// per worker.
	Tracer *obs.Tracer
}

// ParallelReader decodes an indexed trace with a pool of per-chunk workers,
// merging chunks in stream order. It implements Source (and ChunkSource and
// SoASource), yields exactly the byte-for-byte event sequence of the serial
// Reader, and must be Closed to release its goroutines.
type ParallelReader struct {
	meta  Meta
	index *Index

	results chan chan chunkResult
	free    chan *ChunkSoA
	stop    chan struct{}
	wg      sync.WaitGroup

	cur     *ChunkSoA // current in-order chunk region; rows [pos, hi) remain
	pos, hi int
	view    ChunkSoA      // NextChunkSoA's reusable column view into cur
	aos     []trace.Event // NextChunk's reusable adapter buffer
	err     error

	selected uint64
	consumed atomic.Uint64

	closeOnce sync.Once
	closeErr  error
	closer    io.Closer
}

type job struct {
	ref   ChunkRef
	chunk int // index of ref in the chunk index
	out   chan chunkResult
}

type chunkResult struct {
	soa    *ChunkSoA
	lo, hi int
	err    error
}

// errReaderClosed surfaces on chunks abandoned by Close before dispatch.
var errReaderClosed = fmt.Errorf("stream: parallel reader closed")

// OpenFileParallel opens path via the chunk index for parallel decode,
// failing with a wrapped ErrNoIndex on version 1/2 traces (callers fall
// back to OpenFile) and ErrCorrupt on an invalid index. With opt.Mmap the
// file is mapped into memory and chunks decode zero-copy from the mapping.
// The caller must Close the reader.
func OpenFileParallel(path string, opt ParallelOptions) (*ParallelReader, error) {
	if opt.Mmap {
		m, err := OpenFileMmap(path)
		if err != nil {
			return nil, err
		}
		r, err := OpenIndexed(m, m.Size(), opt)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		r.closer = m
		return r, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := OpenIndexed(f, st.Size(), opt)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.closer = f
	return r, nil
}

// OpenIndexed builds a ParallelReader over any random-access byte range
// holding a complete version ≥ 3 stream (a file, or bytes.Reader in tests
// and fuzzing). It does not take ownership of ra.
func OpenIndexed(ra io.ReaderAt, size int64, opt ParallelOptions) (*ParallelReader, error) {
	pr := &posReader{r: bufio.NewReader(io.NewSectionReader(ra, 0, size))}
	meta, version, err := parseHeader(pr)
	if err != nil {
		return nil, err
	}
	if version < Version {
		return nil, fmt.Errorf("version %d: %w", version, ErrNoIndex)
	}
	index, err := ReadIndex(ra, size, pr.n)
	if err != nil {
		return nil, err
	}
	if opt.To > 0 && opt.To < opt.From {
		return nil, fmt.Errorf("stream: invalid event range [%d, %d)", opt.From, opt.To)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = Workers(0)
	}
	first, sel := selectChunks(index, opt.From, opt.To)
	// The window bounds in-flight chunks (decoded-but-unconsumed); a little
	// beyond the worker count keeps workers from idling on a slow consumer.
	window := workers + 2
	r := &ParallelReader{
		meta:     meta,
		index:    index,
		results:  make(chan chan chunkResult, window),
		free:     make(chan *ChunkSoA, window+workers),
		stop:     make(chan struct{}),
		selected: uint64(len(sel)),
	}
	jobs := make(chan job)
	r.wg.Add(1 + workers)
	for i := 0; i < workers; i++ {
		go r.worker(i, ra, jobs, opt)
	}
	go r.dispatch(first, sel, jobs, opt)
	return r, nil
}

// selectChunks returns the chunks overlapping the event range [from, to)
// and the index of the first.
func selectChunks(ix *Index, from, to uint64) (int, []ChunkRef) {
	lo, hi := 0, len(ix.Chunks)
	for lo < hi && ix.Chunks[lo].Start+ix.Chunks[lo].Events <= from {
		lo++
	}
	if to > 0 {
		for hi > lo && ix.Chunks[hi-1].Start >= to {
			hi--
		}
	}
	return lo, ix.Chunks[lo:hi]
}

// dispatch feeds chunk refs to the workers in stream order, enqueueing each
// chunk's result channel onto the bounded window first so the consumer sees
// chunks in exactly index order regardless of which worker finishes when.
func (r *ParallelReader) dispatch(first int, sel []ChunkRef, jobs chan<- job, opt ParallelOptions) {
	defer r.wg.Done()
	defer close(r.results)
	defer close(jobs)
	for i, ref := range sel {
		out := make(chan chunkResult, 1)
		select {
		case r.results <- out:
		case <-r.stop:
			return
		}
		select {
		case jobs <- job{ref: ref, chunk: first + i, out: out}:
		case <-r.stop:
			out <- chunkResult{err: errReaderClosed}
			return
		}
	}
}

// worker decodes chunks from jobs until the channel closes. Each chunk is
// read as one contiguous region — a single ReadAt into the worker's scratch
// buffer, or a zero-copy view when ra is an mmap — and batch-decoded into a
// recycled SoA region, so per-chunk allocation is limited to free-list
// misses.
func (r *ParallelReader) worker(id int, ra io.ReaderAt, jobs <-chan job, opt ParallelOptions) {
	defer r.wg.Done()
	chunks := opt.Metrics.Counter(fmt.Sprintf("stream.decode.worker.%d.chunks", id))
	events := opt.Metrics.Counter(fmt.Sprintf("stream.decode.worker.%d.events", id))
	busyNs := opt.Metrics.Counter(fmt.Sprintf("stream.decode.worker.%d.busy_ns", id))
	allChunks := opt.Metrics.Counter("stream.decode.chunks")
	allEvents := opt.Metrics.Counter("stream.decode.events")
	opt.Tracer.NameLane(decodeWorkerLane0+id, fmt.Sprintf("decode worker %d", id))
	var scratch []byte
	for jb := range jobs {
		var soa *ChunkSoA
		select {
		case soa = <-r.free:
			soa.Reset()
		default:
			soa = &ChunkSoA{}
		}
		sp := opt.Tracer.Begin("chunk", "decode", decodeWorkerLane0+id)
		var t0 time.Time
		if opt.Metrics != nil {
			t0 = time.Now()
		}
		var res chunkResult
		res.soa = soa
		var region []byte
		region, scratch, res.err = readChunkRegion(ra, jb.ref, scratch)
		if res.err == nil {
			res.err = decodeChunkRegion(region, jb.ref, eventCheck{nodes: uint64(r.meta.Nodes), chunk: jb.chunk}, soa)
		}
		if res.err == nil {
			res.hi = soa.Len()
			// Trim boundary chunks to the requested event range; events keep
			// their full-trace sequence numbers.
			if opt.From > jb.ref.Start {
				res.lo = int(opt.From - jb.ref.Start)
			}
			if opt.To > 0 && opt.To < jb.ref.Start+uint64(res.hi) {
				res.hi = int(opt.To - jb.ref.Start)
			}
			if res.hi < res.lo {
				res.hi = res.lo
			}
		}
		if opt.Metrics != nil {
			busyNs.Add(uint64(time.Since(t0).Nanoseconds()))
		}
		sp.Arg("events", jb.ref.Events).Arg("offset", jb.ref.Offset).End()
		if res.err == nil {
			chunks.Inc()
			allChunks.Inc()
			events.Add(uint64(res.hi - res.lo))
			allEvents.Add(uint64(res.hi - res.lo))
		}
		jb.out <- res
	}
}

// Meta returns the stream metadata decoded from the header.
func (r *ParallelReader) Meta() Meta { return r.meta }

// Index returns the decoded chunk index.
func (r *ParallelReader) Index() *Index { return r.index }

// Fraction reports the fraction of selected chunks consumed so far, in
// [0, 1]. Safe to call from any goroutine while another decodes.
func (r *ParallelReader) Fraction() float64 {
	if r.selected == 0 {
		return 0
	}
	return float64(r.consumed.Load()) / float64(r.selected)
}

// Next implements Source, returning io.EOF after the last selected event
// and exactly the error the serial Reader would surface otherwise.
func (r *ParallelReader) Next() (trace.Event, error) {
	if r.err != nil {
		return trace.Event{}, r.err
	}
	for r.pos >= r.hi {
		if !r.fetch() {
			return trace.Event{}, r.err
		}
	}
	e := r.cur.Event(r.pos)
	r.pos++
	return e, nil
}

// NextChunk implements ChunkSource: the remaining events of the current
// chunk, valid until the next NextChunk/Next call.
func (r *ParallelReader) NextChunk() ([]trace.Event, error) {
	if r.err != nil {
		return nil, r.err
	}
	for r.pos >= r.hi {
		if !r.fetch() {
			return nil, r.err
		}
	}
	view := r.cur.Slice(r.pos, r.hi)
	r.pos = r.hi
	r.aos = view.AppendTo(r.aos[:0])
	return r.aos, nil
}

// NextChunkSoA implements SoASource: a column view of the remaining events
// of the current chunk, valid until the next NextChunkSoA/NextChunk/Next
// call.
func (r *ParallelReader) NextChunkSoA() (*ChunkSoA, error) {
	if r.err != nil {
		return nil, r.err
	}
	for r.pos >= r.hi {
		if !r.fetch() {
			return nil, r.err
		}
	}
	r.view = r.cur.Slice(r.pos, r.hi)
	r.pos = r.hi
	return &r.view, nil
}

// fetch advances to the next in-order chunk, recycling the previous chunk's
// region; it reports false (with r.err set) at end of stream or on error.
func (r *ParallelReader) fetch() bool {
	if r.cur != nil {
		select {
		case r.free <- r.cur:
		default:
		}
		r.cur = nil
	}
	for {
		out, ok := <-r.results
		if !ok {
			r.err = io.EOF
			return false
		}
		res := <-out
		if res.err != nil {
			r.err = res.err
			return false
		}
		r.consumed.Add(1)
		if res.hi <= res.lo {
			if res.soa != nil {
				select {
				case r.free <- res.soa:
				default:
				}
			}
			continue
		}
		r.cur = res.soa
		r.pos = res.lo
		r.hi = res.hi
		return true
	}
}

// Close stops the workers, waits for them, and closes the underlying file
// (when opened via OpenFileParallel). Idempotent.
func (r *ParallelReader) Close() error {
	r.closeOnce.Do(func() {
		close(r.stop)
		// Drain the window so the dispatcher unblocks; every enqueued
		// result channel is buffered and guaranteed a send, so nothing here
		// can wedge.
		for range r.results {
		}
		r.wg.Wait()
		if r.closer != nil {
			r.closeErr = r.closer.Close()
		}
	})
	return r.closeErr
}
