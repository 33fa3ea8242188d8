package tse

import (
	"fmt"
	"testing"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// checkHolders asserts the holder-index invariant: bit n of holders[b] is
// set exactly when node n's SVB holds b, and no key has a zero mask.
func checkHolders(t *testing.T, s *System) {
	t.Helper()
	for b, mask := range s.holders {
		if mask == 0 {
			t.Fatalf("holders[%#x] is a zero mask", b)
		}
		for n, eng := range s.engines {
			if set, held := mask&(1<<uint(n)) != 0, eng.SVB().Contains(b); set != held {
				t.Fatalf("holders[%#x] bit %d = %v, but SVB holds it = %v", b, n, set, held)
			}
		}
	}
	for n, eng := range s.engines {
		for b := range eng.SVB().entries {
			if s.holders[b]&(1<<uint(n)) == 0 {
				t.Fatalf("node %d SVB holds %#x but holders[%#x] = %#x", n, b, b, s.holders[b])
			}
		}
	}
}

// writeAll is the reference write: every engine is asked to invalidate,
// holder or not.
func writeAll(s *System, b mem.BlockAddr) {
	for _, eng := range s.engines {
		eng.Write(b)
	}
}

// holderConfig is a small System whose SVBs fill, evict and invalidate
// within a few dozen events.
func holderConfig(svbEntries int, fifoRepl bool) Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.CMOBEntries = 12
	cfg.SVBEntries = svbEntries
	cfg.SVBFIFOReplacement = fifoRepl
	cfg.StreamQueues = 2
	cfg.Lookahead = 3
	return cfg
}

// runHolders feeds events to a System and to a twin whose writes reach
// every engine. After each event it checks the invariant and that every
// node's SVB statistics match the twin's (a skipped holder would miss an
// invalidation). After the last event it runs check, if non-nil, then
// checks that both give the same Result and that Finish empties the index.
func runHolders(t *testing.T, cfg Config, events []trace.Event, check func(*testing.T, *System)) {
	t.Helper()
	s, ref := NewSystem(cfg), NewSystem(cfg)
	for i, e := range events {
		switch e.Kind {
		case trace.KindConsumption:
			if got, want := s.Consumption(e), ref.Consumption(e); got != want {
				t.Fatalf("event %d %+v: covered = %v, reference %v", i, e, got, want)
			}
		case trace.KindWrite:
			s.Write(e)
			writeAll(ref, e.Block)
		}
		checkHolders(t, s)
		for n := range s.engines {
			if got, want := s.engines[n].SVB().Stats(), ref.engines[n].SVB().Stats(); got != want {
				t.Fatalf("event %d %+v: node %d SVB stats %+v, reference %+v", i, e, n, got, want)
			}
		}
	}
	if check != nil {
		check(t, s)
	}
	got, want := s.Finish(), ref.Finish()
	if got.String() != want.String() || got.Traffic != want.Traffic || got.BlocksFetched != want.BlocksFetched ||
		got.StreamsAllocated != want.StreamsAllocated || got.CMOBPeakBytes != want.CMOBPeakBytes {
		t.Fatalf("result %+v, reference %+v", got, want)
	}
	if len(s.holders) != 0 {
		t.Fatalf("holders has %d keys after Finish", len(s.holders))
	}
}

func consumption(node mem.NodeID, block int) trace.Event {
	return trace.Event{Kind: trace.KindConsumption, Node: node, Block: mem.BlockAddr(block * 64)}
}

func write(node mem.NodeID, block int) trace.Event {
	return trace.Event{Kind: trace.KindWrite, Node: node, Block: mem.BlockAddr(block * 64)}
}

func TestSystemHolderIndex(t *testing.T) {
	// Node 1 records 0..7; nodes 2 and 3 then follow the same order, so
	// both SVBs stream the same blocks and share holder keys.
	var record []trace.Event
	for b := 0; b < 8; b++ {
		record = append(record, consumption(1, b))
	}
	follow := func(nodes ...mem.NodeID) []trace.Event {
		var out []trace.Event
		for _, n := range nodes {
			out = append(out, consumption(n, 0))
		}
		return out
	}
	cat := func(parts ...[]trace.Event) []trace.Event {
		var out []trace.Event
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	tests := []struct {
		name   string
		cfg    Config
		events []trace.Event
		check  func(t *testing.T, s *System)
	}{
		{
			name:   "two holders share a key",
			cfg:    holderConfig(4, false),
			events: cat(record, follow(2, 3)),
			check: func(t *testing.T, s *System) {
				if got := s.holders[64]; got != 1<<2|1<<3 {
					t.Fatalf("holders[block 1] = %#b, want nodes 2 and 3", got)
				}
			},
		},
		{
			name:   "hit clears only the hitting node",
			cfg:    holderConfig(4, false),
			events: cat(record, follow(2, 3), []trace.Event{consumption(2, 1)}),
			check: func(t *testing.T, s *System) {
				if got := s.holders[64]; got != 1<<3 {
					t.Fatalf("holders[block 1] = %#b, want node 3 only", got)
				}
			},
		},
		{
			name:   "write removes the key",
			cfg:    holderConfig(4, false),
			events: cat(record, follow(2, 3), []trace.Event{write(0, 1)}),
			check: func(t *testing.T, s *System) {
				if _, ok := s.holders[64]; ok {
					t.Fatal("written block still has a holder key")
				}
				if got := s.Engine(2).SVB().Stats().Invalidated + s.Engine(3).SVB().Stats().Invalidated; got != 2 {
					t.Fatalf("invalidations = %d, want 2", got)
				}
			},
		},
		{
			// Three compared streams keep node 3's pointer in the
			// directory while nodes 0, 1 and 2 follow it in turn.
			name: "write reaches every holder",
			cfg:  func() Config { c := holderConfig(4, false); c.ComparedStreams = 3; return c }(),
			events: cat(
				[]trace.Event{consumption(3, 0), consumption(3, 1), consumption(3, 2)},
				follow(0, 1, 2), []trace.Event{write(3, 1)}),
			check: func(t *testing.T, s *System) {
				for n := mem.NodeID(0); n < 3; n++ {
					if got := s.Engine(n).SVB().Stats().Invalidated; got != 1 {
						t.Fatalf("node %d invalidations = %d, want 1", n, got)
					}
				}
			},
		},
		{
			name:   "write to an unheld block is a no-op",
			cfg:    holderConfig(4, false),
			events: cat(record, follow(2), []trace.Event{write(0, 7)}),
			check: func(t *testing.T, s *System) {
				if got := s.Engine(2).SVB().Stats().Invalidated; got != 0 {
					t.Fatalf("invalidations = %d, want 0", got)
				}
			},
		},
		{
			name:   "eviction clears the victim under LRU",
			cfg:    holderConfig(1, false),
			events: cat(record, follow(2), []trace.Event{consumption(2, 1), consumption(2, 2)}),
		},
		{
			name:   "eviction clears the victim under FIFO",
			cfg:    holderConfig(1, true),
			events: cat(record, follow(2, 3), []trace.Event{consumption(3, 1), write(1, 2)}),
		},
		{
			name:   "unlimited SVB",
			cfg:    holderConfig(0, false),
			events: cat(record, follow(2, 3), []trace.Event{write(2, 3), consumption(3, 1)}),
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { runHolders(t, tc.cfg, tc.events, tc.check) })
	}
}

// holderFuzzEvents decodes fuzz input into a System configuration and an
// event sequence over 4 nodes and 16 blocks. In the first byte the low two
// bits pick the SVB capacity (0, 1 or 4) and the top bit FIFO replacement;
// each following byte is one event: bit 0 the kind, bits 1-2 the node,
// bits 4-7 the block.
func holderFuzzEvents(data []byte) (Config, []trace.Event) {
	if len(data) == 0 {
		return holderConfig(4, false), nil
	}
	cfg := holderConfig([]int{0, 1, 4}[int(data[0]&3)%3], data[0]&0x80 != 0)
	events := make([]trace.Event, 0, len(data)-1)
	for _, c := range data[1:] {
		node, block := mem.NodeID(c>>1&3), int(c>>4)
		if c&1 == 0 {
			events = append(events, consumption(node, block))
		} else {
			events = append(events, write(node, block))
		}
	}
	return cfg, events
}

func FuzzSystemHolderIndex(f *testing.F) {
	// Seeds: a recorded order followed by two sharers, with writes mixed
	// in, at each SVB capacity and replacement policy.
	order := []byte{0x02, 0x12, 0x22, 0x32, 0x42, 0x52, 0x62, 0x72}
	for _, head := range []byte{0, 1, 2, 0x80, 0x81, 0x82} {
		seed := append([]byte{head}, order...)
		seed = append(seed, 0x04, 0x06, 0x14, 0x21, 0x16, 0x34, 0x07, 0x44)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		cfg, events := holderFuzzEvents(data)
		runHolders(t, cfg, events, nil)
	})
}

func TestHolderFuzzDecoding(t *testing.T) {
	cfg, events := holderFuzzEvents([]byte{0x82, 0x00, 0xf7})
	if cfg.SVBEntries != 4 || !cfg.SVBFIFOReplacement {
		t.Fatalf("config = %+v, want 4-entry FIFO SVB", cfg)
	}
	want := []trace.Event{consumption(0, 0), write(3, 15)}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
}
