// Package directory implements the DSM directory: per-block sharing state
// (a full-map MSI directory with owner and sharer set). The TSE extension
// of Section 3.2, the CMOB pointers per block, is the TSE model's own
// pointer table (internal/tse): the coherence engine never reads it.
//
// Blocks are home-distributed across nodes by block index; the Directory
// type here models the aggregate of all per-node directory slices, which is
// sufficient because the functional and timing models only need the home
// node's identity to charge latency and traffic.
package directory

import (
	"fmt"
	"math/bits"

	"tsm/internal/mem"
)

// State is the directory-visible sharing state of a block.
type State uint8

const (
	// Uncached means no cache holds the block.
	Uncached State = iota
	// Shared means one or more caches hold a clean copy.
	Shared
	// Modified means exactly one cache holds a dirty copy.
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Uncached:
		return "uncached"
	case Shared:
		return "shared"
	case Modified:
		return "modified"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Entry is the directory state for one block.
type Entry struct {
	State      State
	Owner      mem.NodeID // valid when State == Modified
	Sharers    SharerSet
	LastWriter mem.NodeID // most recent writer ever (InvalidNode if none)
}

// SharerSet is a bitmap of nodes holding a shared copy. It supports up to 64
// nodes, which covers the paper's 16-node system with room to spare.
type SharerSet uint64

// Add inserts a node into the set.
func (s *SharerSet) Add(n mem.NodeID) { *s |= 1 << uint(n) }

// Remove deletes a node from the set.
func (s *SharerSet) Remove(n mem.NodeID) { *s &^= 1 << uint(n) }

// Contains reports whether the node is in the set.
func (s SharerSet) Contains(n mem.NodeID) bool { return s&(1<<uint(n)) != 0 }

// Count returns the number of nodes in the set.
func (s SharerSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Clear empties the set.
func (s *SharerSet) Clear() { *s = 0 }

// Nodes returns the members of the set in ascending order. It allocates;
// hot paths walk the mask instead.
func (s SharerSet) Nodes() []mem.NodeID {
	var out []mem.NodeID
	for v := uint64(s); v != 0; v &= v - 1 {
		out = append(out, mem.NodeID(bits.TrailingZeros64(v)))
	}
	return out
}

// Config parameterises the directory.
type Config struct {
	// Nodes is the number of nodes in the system.
	Nodes int
	// Geometry supplies the block size used to home blocks.
	Geometry mem.Geometry
}

// DefaultConfig returns a 16-node directory.
func DefaultConfig() Config {
	return Config{Nodes: 16, Geometry: mem.DefaultGeometry()}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes > 64 {
		return fmt.Errorf("directory: node count %d out of range [1,64]", c.Nodes)
	}
	return c.Geometry.Validate()
}

// Directory is the aggregate full-map directory.
type Directory struct {
	cfg     Config
	entries map[uint64]*Entry // keyed by block index
}

// New builds an empty directory. It panics on an invalid configuration.
func New(cfg Config) *Directory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Directory{cfg: cfg, entries: make(map[uint64]*Entry)}
}

// Config returns the directory configuration.
func (d *Directory) Config() Config { return d.cfg }

// HomeNode returns the node whose memory (and directory slice) owns the
// block. Blocks are interleaved across nodes at block granularity.
func (d *Directory) HomeNode(b mem.BlockAddr) mem.NodeID {
	return mem.NodeID(d.cfg.Geometry.BlockIndex(mem.Addr(b)) % uint64(d.cfg.Nodes))
}

// Entries returns the number of blocks with directory state allocated.
func (d *Directory) Entries() int { return len(d.entries) }

// Lookup returns the entry for a block, or nil if the block has never been
// referenced.
func (d *Directory) Lookup(b mem.BlockAddr) *Entry {
	return d.entries[d.cfg.Geometry.BlockIndex(mem.Addr(b))]
}

// entry returns the entry for a block, allocating it if needed.
func (d *Directory) entry(b mem.BlockAddr) *Entry {
	idx := d.cfg.Geometry.BlockIndex(mem.Addr(b))
	e, ok := d.entries[idx]
	if !ok {
		e = &Entry{State: Uncached, Owner: mem.InvalidNode, LastWriter: mem.InvalidNode}
		d.entries[idx] = e
	}
	return e
}

// ReadResult describes the directory's response to a read request.
type ReadResult struct {
	// Coherent reports whether the miss is a coherent read miss (the
	// directory had to obtain the data from another node's dirty copy, or
	// the block was last written by a different node). The paper's TSE
	// triggers only on these.
	Coherent bool
	// Producer is the node that wrote the value being read
	// (InvalidNode when the value comes from untouched memory).
	Producer mem.NodeID
	// Owner is the previous owner that must forward/downgrade its copy
	// (InvalidNode when memory supplies the data).
	Owner mem.NodeID
}

// Read processes a read request from a node that missed in its private
// cache hierarchy and updates sharing state.
func (d *Directory) Read(node mem.NodeID, b mem.BlockAddr) ReadResult {
	e := d.entry(b)
	res := ReadResult{Producer: e.LastWriter, Owner: mem.InvalidNode}
	switch e.State {
	case Modified:
		res.Owner = e.Owner
		res.Coherent = e.Owner != node
		// Owner's copy is downgraded to shared.
		e.Sharers.Add(e.Owner)
		e.Sharers.Add(node)
		e.Owner = mem.InvalidNode
		e.State = Shared
	case Shared, Uncached:
		// Coherent when the last value was produced by another node and
		// this node is not already recorded as holding the block
		// (producer->consumer communication).
		res.Coherent = e.LastWriter != mem.InvalidNode && e.LastWriter != node && !e.Sharers.Contains(node)
		e.Sharers.Add(node)
		e.State = Shared
	}
	return res
}

// WriteResult describes the directory's response to a write (or upgrade)
// request.
type WriteResult struct {
	// Invalidated is the set of nodes whose copies were invalidated.
	Invalidated SharerSet
	// PreviousOwner is the node whose dirty copy was taken (InvalidNode
	// if none).
	PreviousOwner mem.NodeID
	// Coherent reports whether the write required invalidating or
	// fetching another node's copy.
	Coherent bool
}

// Write processes a write request (including upgrades from Shared) and
// updates sharing state.
func (d *Directory) Write(node mem.NodeID, b mem.BlockAddr) WriteResult {
	e := d.entry(b)
	var res WriteResult
	res.PreviousOwner = mem.InvalidNode
	switch e.State {
	case Modified:
		if e.Owner != node {
			res.PreviousOwner = e.Owner
			res.Invalidated.Add(e.Owner)
			res.Coherent = true
		}
	case Shared:
		res.Invalidated = e.Sharers
		res.Invalidated.Remove(node)
		res.Coherent = res.Invalidated != 0
	}
	e.Sharers.Clear()
	e.State = Modified
	e.Owner = node
	e.LastWriter = node
	return res
}

// Evict notes that a node dropped its copy of a block (clean eviction or
// writeback). Dirty evictions leave LastWriter untouched because the value
// written lives on in memory.
func (d *Directory) Evict(node mem.NodeID, b mem.BlockAddr, dirty bool) {
	e := d.entries[d.cfg.Geometry.BlockIndex(mem.Addr(b))]
	if e == nil {
		return
	}
	if e.State == Modified && e.Owner == node {
		e.State = Uncached
		e.Owner = mem.InvalidNode
		return
	}
	e.Sharers.Remove(node)
	if e.State == Shared && e.Sharers.Count() == 0 {
		e.State = Uncached
	}
}

// Reset clears all directory state.
func (d *Directory) Reset() {
	d.entries = make(map[uint64]*Entry)
}
