package tse

import (
	"testing"
	"testing/quick"

	"tsm/internal/mem"
)

// pointers returns the block's set pointers, newest first.
func pointers(t *pointerTable, b mem.BlockAddr) []CMOBPointer {
	if _, ok := t.slot[b]; !ok {
		return nil
	}
	var out []CMOBPointer
	for _, p := range t.list(b) {
		if p.Valid {
			out = append(out, p)
		}
	}
	return out
}

func TestCMOBPointers(t *testing.T) {
	pt := pointerTable{width: 2}
	b := mem.BlockAddr(0x5000)
	if got := pointers(&pt, b); got != nil {
		t.Fatal("pointers for untouched block should be nil")
	}
	// record hands back the list as it stood before the update.
	if before := pt.record(b, CMOBPointer{Node: 1, Offset: 10}, nil); len(before) != 2 || before[0].Valid || before[1].Valid {
		t.Fatalf("first record saw %+v, want two unset pointers", before)
	}
	pt.record(b, CMOBPointer{Node: 2, Offset: 20}, nil)
	ptrs := pointers(&pt, b)
	if len(ptrs) != 2 || ptrs[0].Node != 2 || ptrs[1].Node != 1 {
		t.Fatalf("pointers = %+v, want newest (node 2) first", ptrs)
	}
	// Same node again: replaces its old pointer, still 2 entries.
	before := pt.record(b, CMOBPointer{Node: 1, Offset: 30}, nil)
	if before[0].Node != 2 || before[1].Node != 1 || before[1].Offset != 10 {
		t.Fatalf("record saw %+v, want node2@20 then node1@10", before)
	}
	ptrs = pointers(&pt, b)
	if len(ptrs) != 2 || ptrs[0].Node != 1 || ptrs[0].Offset != 30 || ptrs[1].Node != 2 {
		t.Fatalf("pointers = %+v, want node1@30 then node2@20", ptrs)
	}
	// Third distinct node: oldest drops.
	pt.record(b, CMOBPointer{Node: 3, Offset: 40}, nil)
	ptrs = pointers(&pt, b)
	if len(ptrs) != 2 || ptrs[0].Node != 3 || ptrs[1].Node != 1 {
		t.Fatalf("pointers = %+v, want node3 then node1", ptrs)
	}
}

// prependPointer is the reference update record must match: drop the
// node's older pointer, put the new one first, keep the newest n.
func prependPointer(ptrs []CMOBPointer, ptr CMOBPointer, n int) []CMOBPointer {
	out := []CMOBPointer{ptr}
	for _, p := range ptrs {
		if p.Node != ptr.Node {
			out = append(out, p)
		}
	}
	return out[:min(len(out), n)]
}

func TestRecordCMOBPointerOrderAndDedup(t *testing.T) {
	for _, per := range []int{1, 2, 3} {
		f := func(records []uint8) bool {
			pt := pointerTable{width: per}
			b := mem.BlockAddr(0x40 * uint64(len(records)))
			var want []CMOBPointer
			for i, r := range records {
				ptr := CMOBPointer{Node: mem.NodeID(r % 5), Offset: uint64(i)}
				pt.record(b, ptr, nil)
				ptr.Valid = true
				want = prependPointer(want, ptr, per)
				got := pointers(&pt, b)
				if len(got) != len(want) {
					return false
				}
				for j := range want {
					if got[j] != want[j] {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("width %d: %v", per, err)
		}
	}
}

func TestRecordCMOBPointerDoesNotAllocate(t *testing.T) {
	for _, per := range []int{1, 2, 3} {
		pt := pointerTable{width: per}
		b := mem.BlockAddr(0x7000)
		dst := make([]CMOBPointer, 0, per)
		for n := 0; n < per; n++ {
			pt.record(b, CMOBPointer{Node: mem.NodeID(n), Offset: uint64(n)}, dst)
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			i++
			dst = pt.record(b, CMOBPointer{Node: mem.NodeID(i % 5), Offset: uint64(i)}, dst[:0])
		})
		if allocs != 0 {
			t.Fatalf("width %d: record made %v allocations per call, want 0", per, allocs)
		}
	}
}

// TestPointerListPrefix pins the property a shared arrangement relies on:
// after any record sequence, the first c pointers of a k-wide table equal
// a c-wide table's list, for every c <= k <= 4, both for the list record
// hands back and for the table's state.
func TestPointerListPrefix(t *testing.T) {
	f := func(records []uint16) bool {
		var tables [5]pointerTable
		for w := 1; w <= 4; w++ {
			tables[w] = pointerTable{width: w}
		}
		var seen [5][]CMOBPointer
		for i, r := range records {
			b := mem.BlockAddr(uint64(r>>8)%6) * 64
			ptr := CMOBPointer{Node: mem.NodeID(r % 7), Offset: uint64(i)}
			for w := 1; w <= 4; w++ {
				seen[w] = tables[w].record(b, ptr, seen[w][:0])
			}
			for k := 1; k <= 4; k++ {
				for c := 1; c <= k; c++ {
					for j := 0; j < c; j++ {
						if seen[k][j] != seen[c][j] {
							return false
						}
					}
					got, want := pointers(&tables[k], b), pointers(&tables[c], b)
					if len(got) < len(want) {
						return false
					}
					for j := range want {
						if got[j] != want[j] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPointerStorageBits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes, cfg.ComparedStreams, cfg.CMOBEntries = 16, 2, 1<<20
	// 2 * (log2(16) + log2(1M)) = 2 * (4 + 20) = 48 bits.
	if got := cfg.PointerStorageBits(); got != 48 {
		t.Fatalf("PointerStorageBits = %d, want 48", got)
	}
	cfg.CMOBEntries = 0
	if cfg.PointerStorageBits() != 0 {
		t.Fatal("an unlimited CMOB should report zero overhead")
	}
}
