package tse

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"tsm/internal/mem"
)

// scanSVB is the reference replacement model: the min-age scan the SVB used
// before its order became a linked list. Every insert or refresh stamps the
// entry with a fresh clock value (FIFO keeps the first stamp), and the victim
// is the entry with the smallest stamp, found by scanning every entry.
type scanSVB struct {
	capacity int
	fifo     bool
	clock    uint64
	entries  map[mem.BlockAddr]scanEntry
	stats    SVBStats
	discards []svbDiscard
}

type scanEntry struct {
	queue int
	age   uint64
}

// svbDiscard is one recorded discard.
type svbDiscard struct {
	block  mem.BlockAddr
	reason DiscardReason
}

func newScanSVB(capacity int, fifo bool) *scanSVB {
	return &scanSVB{capacity: capacity, fifo: fifo, entries: make(map[mem.BlockAddr]scanEntry)}
}

func (s *scanSVB) discard(b mem.BlockAddr, reason DiscardReason) {
	delete(s.entries, b)
	s.stats.Discards++
	switch reason {
	case DiscardEvicted:
		s.stats.Evicted++
	case DiscardInvalidated:
		s.stats.Invalidated++
	case DiscardUnused:
		s.stats.Unused++
	}
	s.discards = append(s.discards, svbDiscard{b, reason})
}

func (s *scanSVB) insert(b mem.BlockAddr, queue int) {
	s.clock++
	if e, ok := s.entries[b]; ok {
		e.queue = queue
		if !s.fifo {
			e.age = s.clock
		}
		s.entries[b] = e
		return
	}
	if s.capacity > 0 && len(s.entries) >= s.capacity {
		var victim mem.BlockAddr
		var oldest uint64
		found := false
		for b, e := range s.entries {
			if !found || e.age < oldest {
				victim, oldest, found = b, e.age, true
			}
		}
		s.discard(victim, DiscardEvicted)
	}
	s.entries[b] = scanEntry{queue: queue, age: s.clock}
	s.stats.Inserted++
}

func (s *scanSVB) hit(b mem.BlockAddr) (int, bool) {
	e, ok := s.entries[b]
	if !ok {
		return -1, false
	}
	delete(s.entries, b)
	s.stats.Hits++
	return e.queue, true
}

func (s *scanSVB) invalidate(b mem.BlockAddr) bool {
	if _, ok := s.entries[b]; !ok {
		return false
	}
	s.discard(b, DiscardInvalidated)
	return true
}

func (s *scanSVB) flush() {
	for b := range s.entries {
		s.discard(b, DiscardUnused)
	}
}

// svbOp is one step of a replacement sequence.
type svbOp struct {
	kind  uint8
	block mem.BlockAddr
	queue int
}

// Operation kinds; a refresh is an insert of a held block.
const (
	opInsert = iota
	opHit
	opInvalidate
	opFlush
)

// svbUniverse is the number of distinct blocks a sequence touches: more than
// the largest capacity under test, so every capacity sees evictions.
const svbUniverse = 48

// decodeSVBOps turns fuzz bytes into a replacement sequence, two bytes per
// operation: the low nibble of the first picks the kind, its high nibble the
// queue id, the second the block. Inserts dominate so that SVBs fill up, and
// flushes are rare.
func decodeSVBOps(data []byte) []svbOp {
	ops := make([]svbOp, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		op := svbOp{kind: opInsert, block: mem.BlockAddr(data[i+1]%svbUniverse) * 64, queue: int(data[i] >> 4)}
		switch sel := data[i] & 15; {
		case sel >= 11 && sel < 13:
			op.kind = opHit
		case sel >= 13 && sel < 15:
			op.kind = opInvalidate
		case sel == 15 && op.queue == 0:
			op.kind = opFlush
		}
		ops = append(ops, op)
	}
	return ops
}

// checkSVBReplacement runs ops on an SVB and on the scan reference and fails
// on the first divergence: victim sequence, hit results, contents, stats, or
// order state outgrowing the capacity. It returns the final stats.
func checkSVBReplacement(t *testing.T, capacity int, fifo bool, ops []svbOp) SVBStats {
	t.Helper()
	s := NewSVB(capacity)
	s.SetFIFOReplacement(fifo)
	var got []svbDiscard
	s.SetDiscardHandler(func(b mem.BlockAddr, r DiscardReason) { got = append(got, svbDiscard{b, r}) })
	ref := newScanSVB(capacity, fifo)
	for step, op := range ops {
		switch op.kind {
		case opHit:
			q, ok := s.Hit(op.block)
			wq, wok := ref.hit(op.block)
			if q != wq || ok != wok {
				t.Fatalf("cap %d fifo %v step %d: Hit(%#x) = %d,%v, reference %d,%v", capacity, fifo, step, op.block, q, ok, wq, wok)
			}
		case opInvalidate:
			if ok, wok := s.Invalidate(op.block), ref.invalidate(op.block); ok != wok {
				t.Fatalf("cap %d fifo %v step %d: Invalidate(%#x) = %v, reference %v", capacity, fifo, step, op.block, ok, wok)
			}
		case opFlush:
			// Flush order is unspecified: compare the flushed sets.
			n := len(got)
			s.Flush()
			ref.flush()
			sortDiscards(got[n:])
			sortDiscards(ref.discards[n:])
		default:
			s.Insert(op.block, op.queue)
			ref.insert(op.block, op.queue)
		}
		if !slices.Equal(got, ref.discards) {
			t.Fatalf("cap %d fifo %v step %d (%+v): discards %v, reference %v", capacity, fifo, step, op, got, ref.discards)
		}
		if s.Stats() != ref.stats {
			t.Fatalf("cap %d fifo %v step %d: stats %+v, reference %+v", capacity, fifo, step, s.Stats(), ref.stats)
		}
		if s.Len() != len(ref.entries) {
			t.Fatalf("cap %d fifo %v step %d: Len %d, reference %d", capacity, fifo, step, s.Len(), len(ref.entries))
		}
		for b := range ref.entries {
			if !s.Contains(b) {
				t.Fatalf("cap %d fifo %v step %d: block %#x missing", capacity, fifo, step, b)
			}
		}
		checkSVBOrderState(t, s)
	}
	return s.Stats()
}

func sortDiscards(d []svbDiscard) {
	slices.SortFunc(d, func(a, b svbDiscard) int { return cmp.Compare(a.block, b.block) })
}

// checkSVBOrderState asserts the replacement order is O(capacity): an
// unbounded SVB keeps none, a bounded one never holds more slots than its
// capacity, and its list links exactly the held blocks.
func checkSVBOrderState(t *testing.T, s *SVB) {
	t.Helper()
	if s.capacity == 0 {
		if s.slots != nil || s.head != noSlot || s.tail != noSlot {
			t.Fatalf("unbounded SVB keeps order state: %d slots", cap(s.slots))
		}
		return
	}
	if cap(s.slots) > s.capacity {
		t.Fatalf("capacity %d SVB holds %d slots", s.capacity, cap(s.slots))
	}
	n := 0
	prev := int32(noSlot)
	for i := s.head; i != noSlot; i = s.slots[i].next {
		if s.slots[i].prev != prev {
			t.Fatalf("slot %d: prev %d, want %d", i, s.slots[i].prev, prev)
		}
		if e, ok := s.entries[s.slots[i].block]; !ok || e.slot != i {
			t.Fatalf("slot %d links block %#x, which the SVB does not hold there", i, s.slots[i].block)
		}
		prev = i
		if n++; n > s.capacity {
			t.Fatal("replacement order longer than the capacity (cycle?)")
		}
	}
	if prev != s.tail || n != s.Len() {
		t.Fatalf("replacement order links %d blocks ending at %d; SVB holds %d, tail %d", n, prev, s.Len(), s.tail)
	}
}

// svbReplacementConfigs are the capacities and policies the differential
// test and the fuzzer cover.
var svbReplacementConfigs = []struct {
	capacity int
	fifo     bool
}{{0, false}, {1, false}, {1, true}, {2, false}, {2, true}, {32, false}, {32, true}}

// TestSVBReplacementMatchesScan: random insert/refresh/hit/invalidate/flush
// sequences give the same victims, hit results and stats as the min-age
// scan, at capacities 1, 2 and 32 (and unbounded), in LRU and FIFO mode.
func TestSVBReplacementMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for seq := 0; seq < 20; seq++ {
		data := make([]byte, 4000)
		rng.Read(data)
		ops := decodeSVBOps(data)
		for _, c := range svbReplacementConfigs {
			st := checkSVBReplacement(t, c.capacity, c.fifo, ops)
			if st.Hits == 0 || st.Invalidated == 0 || st.Unused == 0 || (c.capacity > 0) != (st.Evicted > 0) {
				t.Fatalf("cap %d fifo %v: sequence does not exercise every removal: %+v", c.capacity, c.fifo, st)
			}
		}
	}
}

// FuzzSVBReplacement checks the O(1) replacement order against the min-age
// scan on arbitrary operation sequences.
func FuzzSVBReplacement(f *testing.F) {
	seed := make([]byte, 0, 256)
	for i := 0; i < 128; i++ {
		seed = binary.LittleEndian.AppendUint16(seed, uint16(i*37))
	}
	f.Add(seed)
	f.Add([]byte{0, 1, 0, 2, 0, 1, 0, 3, 4, 2, 5, 1, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeSVBOps(data)
		for _, c := range svbReplacementConfigs {
			checkSVBReplacement(t, c.capacity, c.fifo, ops)
		}
	})
}
