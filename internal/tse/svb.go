package tse

import (
	"tsm/internal/mem"
)

// DiscardReason classifies why a streamed block left the SVB without being
// used.
type DiscardReason uint8

const (
	// DiscardEvicted means the block was replaced by a newer streamed
	// block (SVB capacity pressure).
	DiscardEvicted DiscardReason = iota
	// DiscardInvalidated means a write to the block (by any node)
	// invalidated the clean streamed copy.
	DiscardInvalidated
	// DiscardUnused means the block was still sitting unused in the SVB
	// when the measurement ended or its queue was torn down.
	DiscardUnused
)

// SVBStats accumulates streamed value buffer statistics.
type SVBStats struct {
	Inserted    uint64
	Hits        uint64
	Discards    uint64
	Evicted     uint64
	Invalidated uint64
	Unused      uint64
}

// svbEntry is one streamed block held by the SVB (keyed by its address).
type svbEntry struct {
	queue int // id of the stream queue that streamed it (-1 if unknown)
	// age orders replacement: the clock of the last insert or refresh
	// (LRU), or of the first insert only under FIFO replacement.
	age uint64
}

// holderIndex maps every block held by some SVB of a System to the bitmask
// of the nodes whose SVB holds it. A block held by no SVB has no key, so a
// write can reach exactly the SVBs that hold the block without probing the
// others. Nodes are capped at 64 (Config.Validate), one bit each.
type holderIndex map[mem.BlockAddr]uint64

func (h holderIndex) add(b mem.BlockAddr, bit uint64) { h[b] |= bit }

func (h holderIndex) remove(b mem.BlockAddr, bit uint64) {
	if m := h[b] &^ bit; m != 0 {
		h[b] = m
	} else {
		delete(h, b)
	}
}

// SVB is the Streamed Value Buffer: a small fully-associative buffer holding
// clean streamed cache blocks, probed in parallel with the L2 on every L1
// miss (Section 3.3). Entries are invalidated on any write to the block and
// replaced with an LRU policy.
//
// Inside a System every SVB keeps the System's holder index current: it sets
// its node's bit for a block on insert and clears it on every removal (hit,
// eviction, invalidation, flush).
type SVB struct {
	capacity int // 0 = unlimited
	fifoRepl bool
	entries  map[mem.BlockAddr]svbEntry
	clock    uint64
	stats    SVBStats
	// holders, if non-nil, is the System-wide holder index; bit is this
	// SVB's node bit in it.
	holders holderIndex
	bit     uint64
	// onDiscard, if non-nil, is invoked whenever a block leaves the SVB
	// without having been hit.
	onDiscard func(b mem.BlockAddr, reason DiscardReason)
}

// NewSVB returns an SVB with the given capacity in blocks (0 = unlimited).
func NewSVB(capacity int) *SVB {
	return &SVB{capacity: capacity, entries: make(map[mem.BlockAddr]svbEntry)}
}

// SetFIFOReplacement switches the replacement policy to FIFO (ablation).
func (s *SVB) SetFIFOReplacement(on bool) { s.fifoRepl = on }

// SetDiscardHandler registers a callback invoked on every discard.
func (s *SVB) SetDiscardHandler(fn func(b mem.BlockAddr, reason DiscardReason)) {
	s.onDiscard = fn
}

// trackHolders makes the SVB maintain node's bit in a System's holder index.
func (s *SVB) trackHolders(h holderIndex, node mem.NodeID) {
	s.holders = h
	s.bit = 1 << uint(node)
}

// Capacity returns the configured capacity (0 = unlimited).
func (s *SVB) Capacity() int { return s.capacity }

// Len returns the number of blocks currently held.
func (s *SVB) Len() int { return len(s.entries) }

// Stats returns a copy of the statistics.
func (s *SVB) Stats() SVBStats { return s.stats }

// Contains reports whether the SVB holds the block, without changing state.
func (s *SVB) Contains(b mem.BlockAddr) bool {
	_, ok := s.entries[b]
	return ok
}

// remove deletes a held block from the SVB and from the holder index.
func (s *SVB) remove(b mem.BlockAddr) {
	delete(s.entries, b)
	if s.holders != nil {
		s.holders.remove(b, s.bit)
	}
}

// discard removes a held block that leaves unused and counts it.
func (s *SVB) discard(b mem.BlockAddr, reason DiscardReason) {
	s.remove(b)
	s.stats.Discards++
	switch reason {
	case DiscardEvicted:
		s.stats.Evicted++
	case DiscardInvalidated:
		s.stats.Invalidated++
	case DiscardUnused:
		s.stats.Unused++
	}
	if s.onDiscard != nil {
		s.onDiscard(b, reason)
	}
}

// Insert places a streamed block into the SVB, associated with the stream
// queue that streamed it. If the block is already present the entry is
// refreshed. If the SVB is full the victim (LRU or FIFO per configuration)
// is discarded.
func (s *SVB) Insert(b mem.BlockAddr, queue int) {
	s.clock++
	if e, ok := s.entries[b]; ok {
		e.queue = queue
		if !s.fifoRepl {
			e.age = s.clock
		}
		s.entries[b] = e
		return
	}
	if s.capacity > 0 && len(s.entries) >= s.capacity {
		s.evictOne()
	}
	s.entries[b] = svbEntry{queue: queue, age: s.clock}
	if s.holders != nil {
		s.holders.add(b, s.bit)
	}
	s.stats.Inserted++
}

func (s *SVB) evictOne() {
	var victim mem.BlockAddr
	var oldest uint64
	found := false
	for b, e := range s.entries {
		if !found || e.age < oldest {
			victim, oldest, found = b, e.age, true
		}
	}
	if found {
		s.discard(victim, DiscardEvicted)
	}
}

// Hit probes the SVB for a block on a processor access. On a hit the entry
// is removed (the block moves to the L1 data cache) and the id of the stream
// queue that streamed it is returned so the engine can retrieve a subsequent
// block from that queue.
func (s *SVB) Hit(b mem.BlockAddr) (queue int, ok bool) {
	e, present := s.entries[b]
	if !present {
		return -1, false
	}
	s.remove(b)
	s.stats.Hits++
	return e.queue, true
}

// Invalidate removes a block on a write by any processor; the streamed copy
// is clean so it is simply dropped (and counted as a discard).
func (s *SVB) Invalidate(b mem.BlockAddr) bool {
	if _, ok := s.entries[b]; !ok {
		return false
	}
	s.discard(b, DiscardInvalidated)
	return true
}

// Flush discards every remaining entry as unused. Called at the end of a
// measurement so that blocks streamed but never consumed count against
// accuracy.
func (s *SVB) Flush() {
	for b := range s.entries {
		s.discard(b, DiscardUnused)
	}
}
