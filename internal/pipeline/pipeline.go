// Package pipeline is the single-decode fan-out replay engine: it tees ONE
// pass over a stream.Source into N independent consumers, each running on its
// own goroutine over its own read cursor of a shared broadcast ring.
//
// The paper's evaluation is inherently multi-consumer — one memory-access
// stream feeds the TSE coverage model, the baseline timing model and the TSE
// timing model, and a sensitivity sweep feeds dozens of TSE configurations —
// so the engine decodes the stream exactly once and broadcasts chunk-batched
// events to every consumer:
//
//   - events are batched into chunks, and each chunk is published once into
//     a ring of reusable buffers (ring.go): one slot write and one wakeup per
//     chunk however many consumers are attached, with the slot buffers
//     recycled once every cursor has passed them;
//   - the producer never runs more than the ring capacity ahead of the
//     slowest live cursor, so a slow consumer exerts backpressure instead of
//     forcing unbounded buffering — replay stays bounded-memory no matter
//     how large the trace file is;
//   - each consumer observes the events in exactly the decode order
//     (deterministic per-consumer ordering), which is what lets the fused
//     replay produce reports bit-identical to the serial in-memory
//     reference;
//   - the first consumer failure cancels the producer and every other
//     consumer promptly (their sources return ErrCanceled), and a decode
//     error is delivered to every consumer as its terminal source error.
//
// Consumers only need to implement Run(stream.Source) error, so any existing
// pull-based evaluation loop (tse.System.RunSource, timing.SimulateSource,
// analysis.ModelConsumer) adapts without modification.
package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tsm/internal/obs"
	"tsm/internal/stream"
	"tsm/internal/trace"
)

// ErrCanceled is the terminal error a consumer's source returns once another
// consumer has failed: the stream ends early through no fault of this
// consumer. Run never returns ErrCanceled itself — it reports the error that
// caused the cancellation.
var ErrCanceled = errors.New("pipeline: canceled by another consumer's error")

// Consumer is one independent destination of the fan-out: Run drains the
// source to io.EOF (or fails) and stores whatever result it computes.
// Implementations receive their own private Source and run on their own
// goroutine. Events arrive by value from Next (the chunk slices shared
// between consumers never escape the engine), so a Consumer may keep them
// freely; a Consumer that returns before io.EOF is fine too — once every
// consumer has returned, the engine stops decoding.
type Consumer interface {
	Run(src stream.Source) error
}

// PanicError is the error a run returns in place of a panic in one of its
// goroutines, so that one failing consumer cannot take the process down.
type PanicError struct {
	// Name is "consumer <label>" for a consumer, or "producer" for the
	// goroutine that fills the chunks and runs the Stage.
	Name  string
	Value any // the value passed to panic
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pipeline: %s panicked: %v", e.Name, e.Value)
}

// runConsumer runs consumer i, returning a panic as a *PanicError that
// names it.
func (c Config) runConsumer(i int, consumer Consumer, src stream.Source) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Name: "consumer " + c.consumerLabel(i), Value: v}
		}
	}()
	return consumer.Run(src)
}

// Stage is a per-chunk build step shared by every consumer: it runs once
// per chunk on the producer's goroutine, after the chunk is filled and
// before it is published, and its product is published with the chunk
// (StagedSource). Work that every consumer would otherwise repeat
// identically is done here once.
type Stage interface {
	// Name labels the stage's trace spans and busy-time metric.
	Name() string
	// Build derives the product of one chunk from its columns. prev is
	// the product the chunk's ring slot carried before, which no consumer
	// reads any more (nil on the slot's first use), so Build may reuse its
	// storage. An error ends the stream: consumers drain the chunks
	// already published, then observe it as their terminal source error.
	Build(c *stream.ChunkSoA, prev any) (any, error)
}

// StagedSource is implemented by the sources of a run with a Stage.
type StagedSource interface {
	stream.SoASource
	// NextChunkStaged returns the next whole chunk as columns together
	// with the stage's product for it, both valid until the next call. A
	// consumer that reads products must take every chunk this way.
	NextChunkStaged() (*stream.ChunkSoA, any, error)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(src stream.Source) error

// Run implements Consumer.
func (f ConsumerFunc) Run(src stream.Source) error { return f(src) }

// DefaultChunkEvents is the number of events batched per broadcast chunk.
const DefaultChunkEvents = 1024

// DefaultChunkBuffer is the broadcast window in chunks — the ring capacity;
// together with the chunk size it bounds how far the decoder may run ahead of
// the slowest consumer.
const DefaultChunkBuffer = 4

// Config tunes the engine. The zero value selects the defaults.
type Config struct {
	// ChunkEvents is the number of events batched per chunk (default
	// DefaultChunkEvents).
	ChunkEvents int
	// ChunkBuffer is the broadcast window in chunks — the ring capacity
	// (default DefaultChunkBuffer).
	ChunkBuffer int
	// Metrics, when non-nil, receives the engine's counters, gauges and
	// backpressure histograms under the "pipeline." prefix (see obs.go for
	// the full name list). Nil — the default — disables metric collection
	// entirely: the hot paths then perform a pointer check and nothing else.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one span per stage: the decode pass and
	// each decoded chunk on lane 0, every consumer on its own lane. Nil
	// disables tracing.
	Tracer *obs.Tracer
	// ConsumerNames optionally labels consumers (sweep cells, model names)
	// in metrics and trace lanes; consumers beyond the list — or empty
	// entries — fall back to their index.
	ConsumerNames []string
	// Stage, when non-nil, builds a product from every chunk ahead of the
	// consumers (see Stage). A run with a Stage broadcasts through the
	// ring even to a single consumer.
	Stage Stage
	// Series, when non-nil, attaches domain time-series sampling: every
	// consumer implementing Sampler receives a per-consumer obs.Series (named
	// by its label) and is pumped at broadcast-chunk boundaries (see
	// sample.go). Nil — the default — disables sampling entirely.
	Series *obs.SeriesSet
}

func (c Config) normalize() Config {
	if c.ChunkEvents <= 0 {
		c.ChunkEvents = DefaultChunkEvents
	}
	if c.ChunkBuffer <= 0 {
		c.ChunkBuffer = DefaultChunkBuffer
	}
	return c
}

// Run tees a single decode pass over src into every consumer with the
// default configuration. See Config.Run.
func Run(src stream.Source, consumers ...Consumer) error {
	return Config{}.Run(src, consumers...)
}

// bcastChunk is one broadcast unit's buffer, holding the same rows in up to
// two forms: struct-of-arrays columns and an []trace.Event view. The
// producer fills whichever form its source yields natively — columns from a
// SoASource (the parallel decoder: five memmoves, no per-event work), events
// from everything else (one struct copy per event, exactly what an []Event
// broadcast used to cost) — and the OTHER form materializes lazily, once per
// chunk, when the first consumer that needs it asks. Column-aware consumers
// (SoASource pulls) sweep dense columns; per-event consumers (Next pulls)
// index a plain event slice; neither pays a per-event transpose, and a
// needed transpose runs once per chunk, amortized across every consumer.
// Row count and boundary seq are captured at fill time so the sampling pump
// and metrics never race the lazy conversion.
type bcastChunk struct {
	n    int    // rows, set at fill time
	last uint64 // seq of the final row (valid when n > 0), set at fill time

	mu     sync.Mutex
	soa    stream.ChunkSoA // column form; empty unless matSoA
	matSoA bool
	events []trace.Event // event form; empty unless matAoS
	matAoS bool

	// staged is the Stage's product for the chunk, built before publish.
	// reset keeps it: the next Build over the slot reuses it.
	staged any
}

// reset empties the chunk for refill, keeping both buffers' capacity and
// the stage product. The caller guarantees no consumer still reads the
// chunk (ring slot recycling provides that ordering).
func (b *bcastChunk) reset() {
	b.n = 0
	b.soa.Reset()
	b.matSoA = false
	b.events = b.events[:0]
	b.matAoS = false
}

// aos returns the chunk's rows as []trace.Event, transposing them out of the
// columns on the chunk's first per-event read.
func (b *bcastChunk) aos() []trace.Event {
	b.mu.Lock()
	if !b.matAoS {
		b.events = b.soa.AppendTo(b.events[:0])
		b.matAoS = true
	}
	ev := b.events
	b.mu.Unlock()
	return ev
}

// cols returns the chunk's rows as columns, transposing them out of the
// event slice on the chunk's first column read. The returned region is
// shared read-only by every consumer on the chunk.
func (b *bcastChunk) cols() *stream.ChunkSoA {
	b.mu.Lock()
	if !b.matSoA {
		b.soa.AppendEvents(b.events)
		b.matSoA = true
	}
	b.mu.Unlock()
	return &b.soa
}

// chunkFiller pre-resolves src's bulk interfaces once per run, so the
// per-chunk fill pays type assertions zero times instead of once per chunk.
type chunkFiller struct {
	src stream.Source
	cs  stream.ChunkSource
	ss  stream.SoASource
}

func newChunkFiller(src stream.Source) chunkFiller {
	f := chunkFiller{src: src}
	f.cs, _ = src.(stream.ChunkSource)
	f.ss, _ = src.(stream.SoASource)
	return f
}

// fill fills one broadcast chunk from the source, in the form the source
// yields natively. A stream.SoASource (the parallel decoder) hands over a
// whole pre-decoded region in one bulk column copy — five memmoves, no
// per-event work; a stream.ChunkSource (the codec Reader) and the generic
// Next pull fill the event form, one struct copy per event. A non-nil
// terminal accompanies whatever partial chunk was filled before it
// (possibly none).
func (f chunkFiller) fill(dst *bcastChunk, chunkEvents int) (terminal error) {
	if f.ss != nil {
		soa, err := f.ss.NextChunkSoA()
		if err != nil {
			return err
		}
		dst.soa.AppendSoA(soa)
		dst.matSoA = true
		if dst.n = dst.soa.Len(); dst.n > 0 {
			dst.last = dst.soa.Seq[dst.n-1]
		}
		return nil
	}
	if cap(dst.events) < chunkEvents {
		dst.events = make([]trace.Event, 0, chunkEvents)
	}
	if f.cs != nil {
		events, err := f.cs.NextChunk()
		if err == nil {
			dst.events = append(dst.events, events...)
		}
		terminal = err
	} else {
		for len(dst.events) < chunkEvents {
			e, err := f.src.Next()
			if err != nil {
				terminal = err
				break
			}
			dst.events = append(dst.events, e)
		}
	}
	dst.matAoS = true
	if dst.n = len(dst.events); dst.n > 0 {
		dst.last = dst.events[dst.n-1].Seq
	}
	return terminal
}

// Run decodes src exactly once and broadcasts the events to every consumer
// through the ring, blocking until the producer and all
// consumers have finished (no goroutine outlives the call). With zero
// consumers it returns nil without reading src; with one consumer and no
// Stage it runs the consumer directly on the caller's goroutine (no
// broadcast needed — a plain single pass). A panic in a consumer or in the
// producer is returned as a *PanicError.
//
// On success every consumer has drained the full stream in decode order. On
// failure Run returns the first error in consumer order — a consumer's own
// failure, or the decode error every consumer observed — never ErrCanceled.
func (c Config) Run(src stream.Source, consumers ...Consumer) error {
	switch {
	case len(consumers) == 0:
		return nil
	case len(consumers) == 1 && c.Stage == nil:
		smps := c.samplers(consumers)
		o := c.newObs(1)
		if o == nil && smps == nil {
			return c.runConsumer(0, consumers[0], src)
		}
		runSrc := src
		if smp := samplerAt(smps, 0); smp != nil {
			n := c.ChunkEvents
			if n <= 0 {
				n = DefaultChunkEvents
			}
			runSrc = &pumpSource{src: src, sampleState: sampleState{sampler: smp}, chunkEvents: n}
		}
		if o == nil {
			return c.runConsumer(0, consumers[0], runSrc)
		}
		start := time.Now()
		sp := o.beginSpan(o.consumers[0].label, "consumer", 1)
		counted := &singleSource{src: runSrc, o: o}
		err := c.runConsumer(0, consumers[0], counted)
		counted.flush()
		o.producerDone(time.Since(start))
		o.consumerSpanEnd(0, sp)
		o.runDone(start)
		return err
	}
	c = c.normalize()
	smps := c.samplers(consumers)
	o := c.newObs(len(consumers))
	if o.enabled() {
		defer o.runDone(time.Now())
	}
	return c.runRing(src, consumers, smps, o)
}
