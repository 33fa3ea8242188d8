package tse

import (
	"tsm/internal/mem"
)

// cmobLog holds the recorded entries of one node's CMOB. Offset o is
// stored at entries[o%size], or at entries[o] when size is 0 (a log that
// keeps everything). Storage grows by append, never beyond size, and only
// then wraps, so until the first wrap len(entries) == number of appends.
//
// A log is appended to only at offsets past every reader's bound, and a
// wrapped slot is overwritten only once no reader can still need its old
// offset, so a copy of a log (a view) stays valid for the offsets below
// the append count it was taken at.
type cmobLog struct {
	entries []mem.BlockAddr
	size    int // 0 = keep every entry
}

// append stores b at offset off, the log's append count.
func (l *cmobLog) append(off uint64, b mem.BlockAddr) {
	if l.size == 0 || len(l.entries) < l.size {
		l.entries = appendBounded(l.entries, b, l.size)
	} else {
		l.entries[off%uint64(l.size)] = b
	}
}

// at returns the entry stored for off.
func (l *cmobLog) at(off uint64) mem.BlockAddr {
	if l.size == 0 {
		return l.entries[off]
	}
	return l.entries[off%uint64(l.size)]
}

// CMOB is a node's Coherence Miss Order Buffer as one System sees it: a
// circular buffer, resident in a private region of main memory, that
// records the node's coherent read misses (and useful streamed hits, which
// replace the misses they eliminated) in program order (Section 3.1).
//
// Entries are addressed by a monotonically increasing append offset; the
// circular storage retains only the most recent Capacity entries, so reads
// of overwritten offsets fail, which is how a too-small CMOB loses coverage
// (Figure 10).
//
// The capacity and the append count are the CMOB's own; the entries live in
// a log. A standalone CMOB appends to a private log of exactly Capacity
// entries, which costs nothing until the node actually records misses. A
// System driven by a shared Arrangement reads the arrangement's log for the
// node instead, and only counts its appends: every configuration appends
// the same blocks in the same order, so only residency differs.
type CMOB struct {
	capacity int    // 0 = unlimited
	next     uint64 // next append offset (== number of appends so far)
	log      cmobLog
}

// NewCMOB returns a CMOB with the given capacity in entries (0 = unlimited).
func NewCMOB(capacity int) *CMOB {
	return &CMOB{capacity: capacity, log: cmobLog{size: capacity}}
}

// Capacity returns the configured capacity (0 = unlimited).
func (c *CMOB) Capacity() int { return c.capacity }

// Len returns the number of entries currently retained.
func (c *CMOB) Len() int {
	if c.capacity > 0 && c.next > uint64(c.capacity) {
		return c.capacity
	}
	return int(c.next)
}

// Appends returns the total number of appends performed.
func (c *CMOB) Appends() uint64 { return c.next }

// Append records a block address and returns the offset at which it was
// stored. The recording node sends this offset to the block's directory
// entry as a CMOB pointer.
func (c *CMOB) Append(b mem.BlockAddr) uint64 {
	offset := c.next
	c.log.append(offset, b)
	c.next++
	return offset
}

// appendBounded appends v to s, which holds fewer than capacity elements
// (0 = unbounded). s grows as append grows it, except that the step which
// would pass capacity allocates exactly capacity: a bounded buffer costs
// only what it uses until it fills, and then holds no spare room.
func appendBounded[T any](s []T, v T, capacity int) []T {
	if capacity > 0 && len(s) == cap(s) && 2*cap(s) > capacity {
		s = append(make([]T, 0, capacity), s...)
	}
	return append(s, v)
}

// resident reports whether the entry at offset is still retained.
func (c *CMOB) resident(offset uint64) bool {
	return offset < c.next && c.next-offset <= uint64(c.Len())
}

// At returns the entry at offset, if still resident.
func (c *CMOB) At(offset uint64) (mem.BlockAddr, bool) {
	if !c.resident(offset) {
		return 0, false
	}
	return c.log.at(offset), true
}

// ReadStream appends to dst up to n addresses starting at the entry
// *following* offset — the stream that followed the pointed-to miss — and
// returns the extended slice together with the offset of the last address
// appended (so the caller can continue reading when the FIFO runs half
// empty). It appends nothing, and returns offset unchanged, when the pointed
// entry has been overwritten or no subsequent entries exist. A dst with
// room for n more addresses is extended without allocating.
func (c *CMOB) ReadStream(dst []mem.BlockAddr, offset uint64, n int) ([]mem.BlockAddr, uint64) {
	if n <= 0 || !c.resident(offset) {
		return dst, offset
	}
	// Every entry after a resident one is resident too.
	if avail := c.next - 1 - offset; uint64(n) > avail {
		n = int(avail)
	}
	for off := offset + 1; off <= offset+uint64(n); off++ {
		dst = append(dst, c.log.at(off))
	}
	return dst, offset + uint64(n)
}

// StorageBytes returns the memory footprint of the retained entries using
// the paper's 6-byte packed entries.
func (c *CMOB) StorageBytes() int { return c.Len() * CMOBEntryBytes }

// Reset discards all entries, keeping the storage for reuse.
func (c *CMOB) Reset() {
	c.next = 0
	c.log.entries = c.log.entries[:0]
}
