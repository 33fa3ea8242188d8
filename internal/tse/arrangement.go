package tse

import (
	"fmt"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// Arrangement is the part of the TSE model that every configuration
// computes identically over one event stream, built once so that many
// Systems can share it (Shared Arrangements, applied at the model level).
// A node appends to its CMOB on every consumption, covered or not, and the
// directory records the new CMOB pointer (Sections 3.1-3.2); neither
// depends on lookahead, SVB size, stream queues, compared streams or CMOB
// capacity. So an Arrangement keeps one append-only log per node and one
// pointer table, and each System driven by it (RunArranged) keeps only
// its own per-node append counts and capacity.
//
// The arrangement is built chunk by chunk ahead of the Systems. Arrange
// returns what one chunk publishes: the pointer list each of its
// consumptions saw before its own update, and a view of every node's log
// that covers the chunk. Systems on other goroutines may still be
// processing earlier chunks, through the views published with them. A
// view is never written below the append count it was taken at, and a
// bounded log grows, into new storage, before it would overwrite an entry
// that a System on a chunk still in flight can read.
type Arrangement struct {
	nodes int
	// keep is the number of entries behind a System's append count that
	// it may read: the largest CMOB capacity among the configurations,
	// or 0 when one of them keeps its whole log.
	keep   int
	counts []uint64 // per node: entries appended so far
	logs   []cmobLog
	ptrs   pointerTable
	// chunks are every ArrangedChunk built so far. Each is reused for a
	// later chunk (Arrange's prev), so a System can be processing at most
	// these.
	chunks []*ArrangedChunk
}

// ArrangedChunk is what an Arrangement publishes with one chunk of events.
type ArrangedChunk struct {
	width int
	// ptrs holds width pointers per consumption of the chunk, in row
	// order: the block's pointer list before the consumption's update.
	ptrs []CMOBPointer
	// logs is every node's log as of the end of the chunk.
	logs []cmobLog
	// starts is every node's append count at the start of the chunk; a
	// System processing the chunk has appended at least as many.
	starts []uint64
}

// NewArrangement returns an empty arrangement that can drive a System of
// each given configuration. The configurations must be valid and agree on
// the node count. The pointer lists are as wide as the largest
// ComparedStreams: a pointer list's first c entries are exactly a c-wide
// list (see pointerTable).
func NewArrangement(cfgs []Config) (*Arrangement, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("tse: arrangement needs at least one configuration")
	}
	a := &Arrangement{nodes: cfgs[0].Nodes}
	width, unbounded := 0, false
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.Nodes != a.nodes {
			return nil, fmt.Errorf("tse: arrangement configuration %d has %d nodes, want %d", i, cfg.Nodes, a.nodes)
		}
		width = max(width, cfg.ComparedStreams)
		a.keep = max(a.keep, cfg.CMOBEntries)
		unbounded = unbounded || cfg.CMOBEntries == 0
	}
	if unbounded {
		a.keep = 0
	}
	a.ptrs = pointerTable{width: width}
	a.counts = make([]uint64, a.nodes)
	a.logs = make([]cmobLog, a.nodes)
	for n := range a.logs {
		a.logs[n].size = a.keep
	}
	return a, nil
}

// Arrange records one chunk of events, given as columns, and returns what
// the chunk publishes. prev is an ArrangedChunk this arrangement returned
// earlier whose chunk no System reads any more; its storage is reused. Nil
// builds a new one. A consumption by a node outside [0, Nodes) returns a
// *NodeError.
func (a *Arrangement) Arrange(kinds []trace.EventKind, nodes []mem.NodeID, blocks []mem.BlockAddr, prev *ArrangedChunk) (*ArrangedChunk, error) {
	ac := prev
	if ac == nil {
		ac = &ArrangedChunk{width: a.ptrs.width, starts: make([]uint64, a.nodes)}
		a.chunks = append(a.chunks, ac)
	}
	copy(ac.starts, a.counts)
	if a.keep > 0 {
		a.retain(len(kinds))
	}
	ac.ptrs = ac.ptrs[:0]
	for i, k := range kinds {
		if k != trace.KindConsumption {
			continue
		}
		node := nodes[i]
		if err := checkNode(node, a.nodes); err != nil {
			return nil, err
		}
		off := a.counts[node]
		ac.ptrs = a.ptrs.record(blocks[i], CMOBPointer{Node: node, Offset: off}, ac.ptrs)
		a.logs[node].append(off, blocks[i])
		a.counts[node] = off + 1
	}
	ac.logs = append(ac.logs[:0], a.logs...)
	return ac, nil
}

// retain grows each bounded log so that appending up to rows more entries
// overwrites nothing a System may still read. A System on the oldest
// chunk in flight has appended at least that chunk's start count and reads
// at most keep entries behind its own count.
func (a *Arrangement) retain(rows int) {
	for n := range a.logs {
		oldest := a.counts[n]
		for _, c := range a.chunks {
			oldest = min(oldest, c.starts[n])
		}
		from := oldest - min(oldest, uint64(a.keep))
		need := a.counts[n] + uint64(rows) - from
		if l := &a.logs[n]; need > uint64(l.size) {
			*l = l.resized(a.counts[n], max(int(need), 2*l.size))
		}
	}
}

// resized returns the log laid out for a larger size, holding the entries
// of its last min(count, size) offsets, where count is its append count.
// A log that has not wrapped keeps its layout; a wrapped one moves to new
// storage, so views of the old storage stay valid.
func (l *cmobLog) resized(count uint64, size int) cmobLog {
	if count <= uint64(l.size) {
		return cmobLog{entries: l.entries, size: size}
	}
	out := cmobLog{entries: make([]mem.BlockAddr, min(count, uint64(size)), size), size: size}
	for off := count - uint64(l.size); off < count; off++ {
		out.entries[off%uint64(size)] = l.at(off)
	}
	return out
}

// RunArranged is RunColumns for a System driven by a shared Arrangement:
// ac is what the arrangement returned for exactly these rows, and every
// chunk of the stream must pass through here in order. The System reads
// its pointer lists and CMOB entries from ac and keeps only its own append
// counts, so its results are identical to RunColumns over the same rows.
// The arrangement has already checked the nodes.
func (s *System) RunArranged(kinds []trace.EventKind, nodes []mem.NodeID, blocks []mem.BlockAddr, ac *ArrangedChunk) error {
	if ac.width < s.cfg.ComparedStreams || len(ac.logs) != s.cfg.Nodes {
		return fmt.Errorf("tse: arrangement of %d nodes and %d pointers cannot drive a %d-node System comparing %d streams",
			len(ac.logs), ac.width, s.cfg.Nodes, s.cfg.ComparedStreams)
	}
	for n := range s.cmobs {
		s.cmobs[n].log = ac.logs[n]
	}
	w := ac.width
	ptrs := ac.ptrs
	for i, k := range kinds {
		switch k {
		case trace.KindConsumption:
			s.consume(nodes[i], blocks[i], ptrs[:w:w])
			ptrs = ptrs[w:]
		case trace.KindWrite:
			s.writeBlock(blocks[i])
		}
	}
	return nil
}
