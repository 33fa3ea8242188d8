package tse

import (
	"tsm/internal/mem"
)

// CMOB is a node's Coherence Miss Order Buffer: a circular buffer, resident
// in a private region of main memory, that records the node's coherent read
// misses (and useful streamed hits, which replace the misses they
// eliminated) in program order (Section 3.1).
//
// Entries are addressed by a monotonically increasing append offset; the
// circular storage retains only the most recent Capacity entries, so reads
// of overwritten offsets fail, which is how a too-small CMOB loses coverage
// (Figure 10).
//
// Storage grows by append as entries arrive, never beyond Capacity, and
// only then wraps: a System sized for the paper's 1.5 MB ring costs nothing
// until its nodes actually record misses. Until the first wrap,
// len(entries) == next.
type CMOB struct {
	capacity int // 0 = unlimited
	entries  []mem.BlockAddr
	next     uint64 // next append offset (== number of appends so far)
}

// NewCMOB returns a CMOB with the given capacity in entries (0 = unlimited).
func NewCMOB(capacity int) *CMOB { return &CMOB{capacity: capacity} }

// Capacity returns the configured capacity (0 = unlimited).
func (c *CMOB) Capacity() int { return c.capacity }

// Len returns the number of entries currently retained.
func (c *CMOB) Len() int { return len(c.entries) }

// Appends returns the total number of appends performed.
func (c *CMOB) Appends() uint64 { return c.next }

// Append records a block address and returns the offset at which it was
// stored. The recording node sends this offset to the block's directory
// entry as a CMOB pointer.
func (c *CMOB) Append(b mem.BlockAddr) uint64 {
	offset := c.next
	if c.capacity == 0 || len(c.entries) < c.capacity {
		if c.capacity > 0 && len(c.entries) == cap(c.entries) && 2*cap(c.entries) > c.capacity {
			// The last growth step allocates exactly the ring.
			c.entries = append(make([]mem.BlockAddr, 0, c.capacity), c.entries...)
		}
		c.entries = append(c.entries, b)
	} else {
		c.entries[offset%uint64(c.capacity)] = b
	}
	c.next++
	return offset
}

// resident reports whether the entry at offset is still retained.
func (c *CMOB) resident(offset uint64) bool {
	return offset < c.next && c.next-offset <= uint64(len(c.entries))
}

// slot maps a resident offset onto its index in the storage.
func (c *CMOB) slot(offset uint64) int {
	if c.capacity == 0 {
		return int(offset)
	}
	return int(offset % uint64(c.capacity))
}

// At returns the entry at offset, if still resident.
func (c *CMOB) At(offset uint64) (mem.BlockAddr, bool) {
	if !c.resident(offset) {
		return 0, false
	}
	return c.entries[c.slot(offset)], true
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
		dst = append(dst, c.entries[c.slot(off)])
	}
	return dst, offset + uint64(n)
}

// StorageBytes returns the memory footprint of the retained entries using
// the paper's 6-byte packed entries.
func (c *CMOB) StorageBytes() int { return c.Len() * CMOBEntryBytes }

// Reset discards all entries, keeping the storage for reuse.
func (c *CMOB) Reset() {
	c.next = 0
	c.entries = c.entries[:0]
}
