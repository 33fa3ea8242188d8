package tse

import (
	"tsm/internal/mem"
)

// streamSource identifies where a FIFO's addresses come from: a position in
// some node's CMOB.
type streamSource struct {
	node mem.NodeID
	// nextOffset is the CMOB offset of the last address already read into
	// the FIFO; refills continue from here.
	nextOffset uint64
	exhausted  bool
}

// streamFIFO is one of the FIFO queues inside a stream queue. It buffers
// addresses read from one recent consumer's CMOB. The buffered addresses
// are buf[pos:]; refills move them to the front and append in place, so a
// FIFO reaches its capacity once and then never allocates again.
type streamFIFO struct {
	source streamSource
	buf    []mem.BlockAddr
	pos    int
}

// reset empties the FIFO for a new source, keeping its buffer.
func (f *streamFIFO) reset(src streamSource) {
	f.source = src
	f.buf = f.buf[:0]
	f.pos = 0
}

// compact moves the buffered addresses to the front of the buffer, so the
// next read appends into the space that pops freed.
func (f *streamFIFO) compact() {
	f.buf = f.buf[:copy(f.buf, f.buf[f.pos:])]
	f.pos = 0
}

func (f *streamFIFO) len() int { return len(f.buf) - f.pos }

func (f *streamFIFO) empty() bool { return f.pos == len(f.buf) }

func (f *streamFIFO) head() (mem.BlockAddr, bool) {
	if f.empty() {
		return 0, false
	}
	return f.buf[f.pos], true
}

func (f *streamFIFO) pop() (mem.BlockAddr, bool) {
	b, ok := f.head()
	if ok {
		f.pos++
	}
	return b, ok
}

// contains reports whether the FIFO holds the block anywhere (used to let
// the SVB window tolerate small reorderings: a miss that matches a block a
// few entries down the FIFO still identifies this stream).
func (f *streamFIFO) contains(b mem.BlockAddr) int {
	for i, a := range f.buf[f.pos:] {
		if a == b {
			return i
		}
	}
	return -1
}

// dropThrough removes entries up to and including index i.
func (f *streamFIFO) dropThrough(i int) {
	f.pos = min(f.pos+i+1, len(f.buf))
}

// streamQueue groups the FIFOs fetched for one stream head and tracks the
// comparison/stall state of Section 3.3.
type streamQueue struct {
	id   int
	head mem.BlockAddr
	// fifos are the FIFOs still compared, a prefix of pool; pool owns
	// every FIFO the slot has, so a recycled slot reuses them.
	fifos       []*streamFIFO
	pool        []*streamFIFO
	stalled     bool
	outstanding int    // blocks from this queue currently sitting in the SVB
	hits        uint64 // SVB hits attributed to this queue (stream length)
	fetched     uint64 // blocks streamed into the SVB by this queue
	lru         uint64
	active      bool
}

// hasLiveFIFO reports whether some FIFO can still supply addresses
// (non-empty or refillable).
func (q *streamQueue) hasLiveFIFO() bool {
	for _, f := range q.fifos {
		if !f.empty() || !f.source.exhausted {
			return true
		}
	}
	return false
}

// headsAgree checks whether every non-empty FIFO agrees on the next address.
// It returns the agreed address, whether agreement holds, and whether any
// address is available at all.
func (q *streamQueue) headsAgree() (mem.BlockAddr, bool, bool) {
	var agreed mem.BlockAddr
	found := false
	for _, f := range q.fifos {
		h, ok := f.head()
		if !ok {
			continue
		}
		if !found {
			agreed = h
			found = true
			continue
		}
		if h != agreed {
			return 0, false, true
		}
	}
	if !found {
		return 0, false, false
	}
	return agreed, true, true
}

// popAgreed removes the agreed head from every FIFO whose head matches it.
func (q *streamQueue) popAgreed(b mem.BlockAddr) {
	for _, f := range q.fifos {
		if h, ok := f.head(); ok && h == b {
			f.pop()
		}
	}
}

// selectFIFO keeps only the FIFO at index keep, discarding the others'
// contents (the reselection step after a stall, Section 3.3).
func (q *streamQueue) selectFIFO(keep int) {
	q.fifos[0], q.fifos[keep] = q.fifos[keep], q.fifos[0]
	q.fifos = q.fifos[:1]
}

// matchStalledHead checks whether a processor miss to b matches one of the
// stalled queue's FIFO heads (or an entry within the SVB-lookahead window of
// a FIFO). It returns the index of the matching FIFO and the position of the
// match, or (-1, -1).
func (q *streamQueue) matchStalledHead(b mem.BlockAddr, window int) (int, int) {
	for i, f := range q.fifos {
		if pos := f.contains(b); pos >= 0 && pos < window {
			return i, pos
		}
	}
	return -1, -1
}
