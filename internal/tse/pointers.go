package tse

import (
	"fmt"

	"tsm/internal/mem"
)

// CMOBPointer locates the most recent appearance of a block's address in
// some node's CMOB.
type CMOBPointer struct {
	// Node is the node whose CMOB holds the entry.
	Node mem.NodeID
	// Offset is the absolute append index within that CMOB (monotonically
	// increasing; the CMOB maps it onto its circular storage).
	Offset uint64
	// Valid reports whether the pointer has been set.
	Valid bool
}

// NodeError reports a consumption by a node outside [0, Nodes): an event
// no TSE model of that size can process. The model returns it in band
// instead of indexing out of range.
type NodeError struct {
	Node  mem.NodeID
	Nodes int
}

func (e *NodeError) Error() string {
	return fmt.Sprintf("tse: consumption from node %d outside [0,%d)", e.Node, e.Nodes)
}

// checkNode returns a *NodeError when node is outside [0, nodes).
func checkNode(node mem.NodeID, nodes int) error {
	if int(node) < 0 || int(node) >= nodes {
		return &NodeError{Node: node, Nodes: nodes}
	}
	return nil
}

// pointerTable is the directory's CMOB-pointer extension (Section 3.2): for
// each block, the newest CMOB pointers from distinct recent consumers,
// newest first. Every block's list is width pointers stored by value in
// pages of lists that are filled in turn and never moved; unset pointers
// (Valid false) trail the set ones. Only the TSE model reads or writes it,
// so it carries no coherence state.
//
// The list is most-recently-used over distinct nodes, so it has the prefix
// property: the first c pointers of a width-k table equal a width-c table's
// list for every c <= k. That is what lets one table of the widest width
// serve every compared-streams setting of a sweep.
type pointerTable struct {
	width int
	slot  map[mem.BlockAddr]listRef
	pages [][]CMOBPointer
}

// listRef locates a block's list: pages[page][at : at+width].
type listRef struct{ page, at int32 }

// list returns the block's pointer list, giving it an unset one on its
// first use. Pages hold 16 lists, then twice as many each, up to 4096, so
// a small table stays small and a large one wastes at most its last page.
func (t *pointerTable) list(block mem.BlockAddr) []CMOBPointer {
	if t.slot == nil {
		t.slot = make(map[mem.BlockAddr]listRef)
	}
	ref, ok := t.slot[block]
	if !ok {
		last := len(t.pages) - 1
		if last < 0 || len(t.pages[last])+t.width > cap(t.pages[last]) {
			lists := 16 << min(len(t.pages), 8)
			t.pages = append(t.pages, make([]CMOBPointer, 0, lists*t.width))
			last++
		}
		page := t.pages[last]
		ref = listRef{page: int32(last), at: int32(len(page))}
		t.pages[last] = page[:len(page)+t.width]
		t.slot[block] = ref
	}
	return t.pages[ref.page][ref.at : int(ref.at)+t.width]
}

// record appends to dst the block's list as it stood, then makes ptr the
// newest pointer: it replaces the node's own older pointer, else takes a
// free slot, else the oldest pointer. It returns the extended dst. Once a
// block has a list, recording it allocates nothing but dst's growth.
func (t *pointerTable) record(block mem.BlockAddr, ptr CMOBPointer, dst []CMOBPointer) []CMOBPointer {
	ptrs := t.list(block)
	dst = append(dst, ptrs...)
	i := 0
	for i < len(ptrs)-1 && ptrs[i].Valid && ptrs[i].Node != ptr.Node {
		i++
	}
	copy(ptrs[1:i+1], ptrs[:i])
	ptr.Valid = true
	ptrs[0] = ptr
	return dst
}

// PointerStorageBits returns the directory storage overhead, in bits per
// entry, of the CMOB pointer extension:
// ComparedStreams × (log2(Nodes) + log2(CMOBEntries)), per Section 3.2. An
// unlimited CMOB (CMOBEntries 0) has no fixed pointer width and reports 0.
func (c Config) PointerStorageBits() int {
	if c.CMOBEntries <= 0 {
		return 0
	}
	return c.ComparedStreams * (ceilLog2(c.Nodes) + ceilLog2(c.CMOBEntries))
}

func ceilLog2(n int) int {
	bits := 0
	for v := 1; v < n; v <<= 1 {
		bits++
	}
	return bits
}
