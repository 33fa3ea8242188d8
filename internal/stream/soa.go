// Struct-of-arrays chunk regions. The codec's hot loops historically moved
// events as []trace.Event — an array of 40-byte structs — and decoded them
// through an interface-dispatched ReadByte per varint byte. ChunkSoA is the
// mechanical-sympathy replacement: one chunk as five parallel, same-typed
// columns (seq/kind/node/block/producer) that decode from a fully buffered
// []byte region with index-based varint arithmetic, broadcast through the
// pipeline by bulk column copy, and sweep through consumer classify loops as
// dense arrays. An []trace.Event adapter view (Event/AppendTo) keeps every
// per-event consumer working unchanged, and the columns carry explicit
// sequence numbers so the adapter is byte-identical to the serial Reader.
package stream

import (
	"encoding/binary"
	"fmt"
	"io"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// ChunkSoA holds one chunk of events as parallel columns. All five slices
// always have equal length. A ChunkSoA is reusable as an arena: Reset keeps
// the column capacity, so a decoder that recycles regions allocates O(1)
// per chunk after warm-up.
type ChunkSoA struct {
	Seq      []uint64
	Kind     []trace.EventKind
	Node     []mem.NodeID
	Block    []mem.BlockAddr
	Producer []mem.NodeID
}

// NewChunkSoA returns an empty region with capacity for n events per column.
func NewChunkSoA(n int) *ChunkSoA {
	c := &ChunkSoA{}
	c.Grow(n)
	return c
}

// Len returns the number of events in the region.
func (c *ChunkSoA) Len() int { return len(c.Kind) }

// Reset empties the region, keeping column capacity.
func (c *ChunkSoA) Reset() {
	c.Seq = c.Seq[:0]
	c.Kind = c.Kind[:0]
	c.Node = c.Node[:0]
	c.Block = c.Block[:0]
	c.Producer = c.Producer[:0]
}

// Grow ensures capacity for n more events without further allocation.
func (c *ChunkSoA) Grow(n int) {
	if need := len(c.Kind) + n; cap(c.Kind) < need {
		c.Seq = append(make([]uint64, 0, need), c.Seq...)
		c.Kind = append(make([]trace.EventKind, 0, need), c.Kind...)
		c.Node = append(make([]mem.NodeID, 0, need), c.Node...)
		c.Block = append(make([]mem.BlockAddr, 0, need), c.Block...)
		c.Producer = append(make([]mem.NodeID, 0, need), c.Producer...)
	}
}

// AppendEvent appends one event, transposing it into the columns.
func (c *ChunkSoA) AppendEvent(e trace.Event) {
	c.Seq = append(c.Seq, e.Seq)
	c.Kind = append(c.Kind, e.Kind)
	c.Node = append(c.Node, e.Node)
	c.Block = append(c.Block, e.Block)
	c.Producer = append(c.Producer, e.Producer)
}

// AppendEvents transposes a whole event slice into the columns.
func (c *ChunkSoA) AppendEvents(events []trace.Event) {
	c.Grow(len(events))
	for i := range events {
		e := &events[i]
		c.Seq = append(c.Seq, e.Seq)
		c.Kind = append(c.Kind, e.Kind)
		c.Node = append(c.Node, e.Node)
		c.Block = append(c.Block, e.Block)
		c.Producer = append(c.Producer, e.Producer)
	}
}

// AppendSoA bulk-copies another region's columns onto c — five memmoves, no
// per-event work. This is how the pipeline broadcasts a decoded chunk into a
// ring slot.
func (c *ChunkSoA) AppendSoA(o *ChunkSoA) {
	c.Seq = append(c.Seq, o.Seq...)
	c.Kind = append(c.Kind, o.Kind...)
	c.Node = append(c.Node, o.Node...)
	c.Block = append(c.Block, o.Block...)
	c.Producer = append(c.Producer, o.Producer...)
}

// Slice returns a view of rows [lo, hi): the columns share c's backing
// arrays, so the view is only valid while c's contents are.
func (c *ChunkSoA) Slice(lo, hi int) ChunkSoA {
	return ChunkSoA{
		Seq:      c.Seq[lo:hi],
		Kind:     c.Kind[lo:hi],
		Node:     c.Node[lo:hi],
		Block:    c.Block[lo:hi],
		Producer: c.Producer[lo:hi],
	}
}

// Event reassembles row i as a trace.Event — the adapter that keeps
// per-event consumers working over SoA regions.
func (c *ChunkSoA) Event(i int) trace.Event {
	return trace.Event{
		Seq:      c.Seq[i],
		Kind:     c.Kind[i],
		Node:     c.Node[i],
		Block:    c.Block[i],
		Producer: c.Producer[i],
	}
}

// AppendTo transposes the region back into an []trace.Event, appending to
// dst. The result is byte-identical to what the serial Reader would have
// produced for the same chunk.
func (c *ChunkSoA) AppendTo(dst []trace.Event) []trace.Event {
	for i := range c.Kind {
		dst = append(dst, c.Event(i))
	}
	return dst
}

// SoASource is an optional Source refinement for decoders and broadcast
// stages that hold chunks in struct-of-arrays form: NextChunkSoA returns the
// remaining events of the current chunk as a column view (never an empty
// region with a nil error) and io.EOF at end of stream. The view is only
// valid until the next NextChunkSoA/NextChunk/Next call — consumers that
// keep events must copy them. Column-aware consumers (the analysis classify
// loop, the TSE inner loop) use it to sweep dense same-typed arrays instead
// of paying an interface call and a 40-byte struct copy per event.
type SoASource interface {
	Source
	NextChunkSoA() (*ChunkSoA, error)
}

// appendChunkSoA batch-decodes and checks the ref.Events delta-reset events
// of chunk ref from the fully buffered region (which starts at the chunk's
// stream offset), starting at byte offset pos, appending them to dst with
// sequence numbers ref.Start, ref.Start+1, ... It returns the byte offset
// after the last event. The decode is index-based — no io.ByteReader
// dispatch — with single-byte fast paths for the varint fields (the common
// case: node and producer IDs are small, and delta encoding keeps most block
// deltas short).
// Error mapping matches the serial reader's errTrunc contract exactly:
// running off the region is a wrapped ErrTruncated, a varint overflowing 64
// bits is a wrapped ErrCorrupt.
func appendChunkSoA(region []byte, pos int, ref ChunkRef, c eventCheck, dst *ChunkSoA) (int, error) {
	dst.Grow(int(ref.Events))
	prev := uint64(0)
	for i := uint64(0); i < ref.Events; i++ {
		start := pos
		if pos >= len(region) {
			return pos, fmt.Errorf("stream: reading event kind: %w", ErrTruncated)
		}
		kind := region[pos]
		pos++

		var node uint64
		if pos < len(region) && region[pos] < 0x80 {
			node = uint64(region[pos])
			pos++
		} else {
			v, w := binary.Uvarint(region[pos:])
			if w <= 0 {
				return pos, varintErr(w, "node")
			}
			node, pos = v, pos+w
		}

		var delta int64
		if pos < len(region) && region[pos] < 0x80 {
			ux := uint64(region[pos])
			delta = int64(ux>>1) ^ -int64(ux&1)
			pos++
		} else {
			v, w := binary.Varint(region[pos:])
			if w <= 0 {
				return pos, varintErr(w, "block")
			}
			delta, pos = v, pos+w
		}
		prev += uint64(delta)

		var prod uint64
		if pos < len(region) && region[pos] < 0x80 {
			prod = uint64(region[pos])
			pos++
		} else {
			v, w := binary.Uvarint(region[pos:])
			if w <= 0 {
				return pos, varintErr(w, "producer")
			}
			prod, pos = v, pos+w
		}
		if err := c.check(kind, node, prod, ref.Offset+int64(start)); err != nil {
			return pos, err
		}

		dst.Seq = append(dst.Seq, ref.Start+i)
		dst.Kind = append(dst.Kind, trace.EventKind(kind))
		dst.Node = append(dst.Node, mem.NodeID(node))
		dst.Block = append(dst.Block, mem.BlockAddr(prev))
		dst.Producer = append(dst.Producer, mem.NodeID(int64(prod)-1))
	}
	return pos, nil
}

// varintErr maps binary.Uvarint/Varint's sentinel returns onto the codec's
// error taxonomy, matching errTrunc: w == 0 means the region ended
// mid-varint (ErrTruncated), w < 0 means the varint overflows 64 bits
// (ErrCorrupt).
func varintErr(w int, field string) error {
	if w == 0 {
		return fmt.Errorf("stream: reading event %s: %w", field, ErrTruncated)
	}
	return fmt.Errorf("stream: reading event %s: %w: varint overflows a 64-bit integer", field, ErrCorrupt)
}

// decodeChunkRegion decodes the single chunk whose encoded bytes fill
// region (count prefix included) into dst, stamping sequence numbers from
// the chunk's index position and checking every event (see eventCheck).
// The decoded count must match the index and the events must consume the
// region exactly, so an index entry seeded mid-chunk or into arbitrary bytes
// fails with ErrCorrupt/ErrTruncated instead of yielding a silently
// different stream.
func decodeChunkRegion(region []byte, ref ChunkRef, c eventCheck, dst *ChunkSoA) error {
	n, w := binary.Uvarint(region)
	if w == 0 {
		return fmt.Errorf("stream: reading chunk count: %w", ErrTruncated)
	}
	if w < 0 {
		return fmt.Errorf("stream: reading chunk count: %w: varint overflows a 64-bit integer", ErrCorrupt)
	}
	if n != ref.Events {
		return fmt.Errorf("%w: chunk at offset %d holds %d events, index says %d", ErrCorrupt, ref.Offset, n, ref.Events)
	}
	pos, err := appendChunkSoA(region, w, ref, c, dst)
	if err != nil {
		return err
	}
	if pos != len(region) {
		return fmt.Errorf("%w: chunk at offset %d longer than its index extent", ErrCorrupt, ref.Offset)
	}
	return nil
}

// regionReaderAt is the optional io.ReaderAt refinement mmap-backed readers
// implement: Region returns a zero-copy view of [off, off+n), letting the
// chunk decoder parse straight out of the mapped pages instead of copying
// each chunk into a scratch buffer first.
type regionReaderAt interface {
	Region(off, n int64) ([]byte, bool)
}

// readChunkRegion returns the encoded bytes of the chunk at ref — a
// zero-copy view when ra supports it (mmap), otherwise read into scratch
// (grown as needed). It returns the possibly-grown scratch for reuse.
func readChunkRegion(ra io.ReaderAt, ref ChunkRef, scratch []byte) (region, newScratch []byte, err error) {
	if rr, ok := ra.(regionReaderAt); ok {
		if b, ok := rr.Region(ref.Offset, ref.Length); ok {
			return b, scratch, nil
		}
	}
	if int64(cap(scratch)) < ref.Length {
		scratch = make([]byte, ref.Length)
	}
	scratch = scratch[:ref.Length]
	if _, err := io.ReadFull(io.NewSectionReader(ra, ref.Offset, ref.Length), scratch); err != nil {
		return nil, scratch, fmt.Errorf("stream: reading chunk at offset %d: %w", ref.Offset, errTrunc(err))
	}
	return scratch, scratch, nil
}
