package tse

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// columns splits events into the kind/node/block columns RunColumns and
// Arrange take.
type columns struct {
	kinds  []trace.EventKind
	nodes  []mem.NodeID
	blocks []mem.BlockAddr
}

func toColumns(events []trace.Event) columns {
	var c columns
	for _, e := range events {
		c.kinds = append(c.kinds, e.Kind)
		c.nodes = append(c.nodes, e.Node)
		c.blocks = append(c.blocks, e.Block)
	}
	return c
}

func (c columns) slice(lo, hi int) columns {
	return columns{c.kinds[lo:hi], c.nodes[lo:hi], c.blocks[lo:hi]}
}

// runShared drives one System per configuration from a shared arrangement
// the way a broadcast ring does at its worst: chunks of chunk events are
// arranged up to slots chunks ahead of the Systems, each chunk's
// ArrangedChunk is rebuilt only after every System is done with it, and
// the Systems run one whole chunk behind another. It returns each System's
// final Probe and Result.
func runShared(t testing.TB, cfgs []Config, events []trace.Event, chunk, slots int) ([]LiveStats, []Result) {
	t.Helper()
	arr, err := NewArrangement(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	systems := make([]*System, len(cfgs))
	for i, cfg := range cfgs {
		systems[i] = NewSystem(cfg)
	}
	cols := toColumns(events)
	var bounds [][2]int
	for lo := 0; lo < len(events); lo += chunk {
		bounds = append(bounds, [2]int{lo, min(lo+chunk, len(events))})
	}
	ring := make([]*ArrangedChunk, slots)
	built := 0
	for next := range bounds {
		// Arrange ahead until the ring is full: chunk next is the oldest
		// any System still has to process.
		for ; built < len(bounds) && built < next+slots; built++ {
			c := cols.slice(bounds[built][0], bounds[built][1])
			ac, err := arr.Arrange(c.kinds, c.nodes, c.blocks, ring[built%slots])
			if err != nil {
				t.Fatal(err)
			}
			ring[built%slots] = ac
		}
		c := cols.slice(bounds[next][0], bounds[next][1])
		for _, s := range systems {
			if err := s.RunArranged(c.kinds, c.nodes, c.blocks, ring[next%slots]); err != nil {
				t.Fatal(err)
			}
		}
	}
	probes := make([]LiveStats, len(systems))
	results := make([]Result, len(systems))
	for i, s := range systems {
		probes[i] = s.Probe()
		results[i] = s.Finish()
	}
	return probes, results
}

// runOwn is the reference: one standalone System over every event.
func runOwn(t testing.TB, cfg Config, events []trace.Event) (LiveStats, Result) {
	t.Helper()
	s := NewSystem(cfg)
	c := toColumns(events)
	if err := s.RunColumns(c.kinds, c.nodes, c.blocks); err != nil {
		t.Fatal(err)
	}
	return s.Probe(), s.Finish()
}

// randomEvents is a small stream of consumptions and writes over few
// blocks, with runs that repeat earlier sequences so that streams form.
func randomEvents(rng *rand.Rand, nodes, n int) []trace.Event {
	events := make([]trace.Event, 0, n)
	var history []mem.BlockAddr
	for len(events) < n {
		node := mem.NodeID(rng.Intn(nodes))
		switch r := rng.Intn(10); {
		case r < 2:
			events = append(events, trace.Event{Kind: trace.KindWrite, Node: node, Block: mem.BlockAddr(rng.Intn(48)) * 64})
		case r < 5 && len(history) > 8:
			// Replay a stretch of an earlier order.
			start := rng.Intn(len(history) - 4)
			for _, b := range history[start:min(len(history), start+2+rng.Intn(12))] {
				events = append(events, trace.Event{Kind: trace.KindConsumption, Node: node, Block: b})
			}
		default:
			b := mem.BlockAddr(rng.Intn(48)) * 64
			history = append(history, b)
			events = append(events, trace.Event{Kind: trace.KindConsumption, Node: node, Block: b})
		}
	}
	return events[:n]
}

// randomConfig is a small TSE configuration with every parameter a sweep
// varies drawn at random, including small bounded CMOBs.
func randomConfig(rng *rand.Rand, nodes int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.CMOBEntries = []int{0, 1, 3, 8, 20, 64}[rng.Intn(6)]
	cfg.SVBEntries = []int{0, 1, 4, 16}[rng.Intn(4)]
	cfg.StreamQueues = 1 + rng.Intn(4)
	cfg.ComparedStreams = 1 + rng.Intn(4)
	cfg.Lookahead = 1 + rng.Intn(8)
	cfg.FIFOCapacity = rng.Intn(3) * 4
	cfg.StreamOnSingle = rng.Intn(4) != 0
	cfg.SVBFIFOReplacement = rng.Intn(2) == 0
	return cfg
}

// checkShared runs cfgs over events both ways and fails on any difference.
func checkShared(t testing.TB, cfgs []Config, events []trace.Event, chunk, slots int) {
	t.Helper()
	probes, results := runShared(t, cfgs, events, chunk, slots)
	for i, cfg := range cfgs {
		wantProbe, want := runOwn(t, cfg, events)
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("cell %d %+v (chunk %d, %d slots): shared result\n%+v\nwant\n%+v", i, cfg, chunk, slots, results[i], want)
		}
		if probes[i] != wantProbe {
			t.Fatalf("cell %d %+v (chunk %d, %d slots): shared probe\n%+v\nwant\n%+v", i, cfg, chunk, slots, probes[i], wantProbe)
		}
	}
}

// TestArrangementMatchesIndependentSystems: Systems driven by one shared
// arrangement, lagging it by a full ring, end exactly where independent
// Systems do, for mixed widths and capacities, bounded-only sets (whose
// shared logs wrap and must grow to cover the lag) and unbounded ones.
func TestArrangementMatchesIndependentSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	events := randomEvents(rng, 4, 3000)
	base := DefaultConfig()
	base.Nodes = 4
	sets := map[string][]Config{}
	for _, capacity := range []int{0, 2, 5, 16, 40} {
		for streams := 1; streams <= 4; streams++ {
			cfg := base
			cfg.CMOBEntries = capacity
			cfg.ComparedStreams = streams
			cfg.Lookahead = 1 + streams
			sets["mixed"] = append(sets["mixed"], cfg)
			if capacity > 0 {
				sets["bounded"] = append(sets["bounded"], cfg)
			}
		}
	}
	for i := 0; i < 6; i++ {
		sets["random"] = append(sets["random"], randomConfig(rng, 4))
	}
	for name, cfgs := range sets {
		for _, shape := range [][2]int{{1, 1}, {7, 3}, {64, 4}, {1000, 2}} {
			t.Run(fmt.Sprintf("%s/chunk%d/slots%d", name, shape[0], shape[1]), func(t *testing.T) {
				checkShared(t, cfgs, events, shape[0], shape[1])
			})
		}
	}
}

// TestMechanismCounters: a bounded CMOB loses reads to overwrite, an
// unbounded one never does, and both see refills; the counters are the
// System's own, so Probe reports them identically with or without a
// shared arrangement (checked by checkShared above as well).
func TestMechanismCounters(t *testing.T) {
	events := migratoryTrace(4, 200).Events
	// Node 3 re-reads node 1's order after the other nodes' appends have
	// pushed it out of a small CMOB.
	for i := 0; i < 200; i++ {
		events = append(events, trace.Event{Kind: trace.KindConsumption, Node: 0, Block: mem.BlockAddr(i * 64)})
	}
	bounded, unbounded := smallSystemConfig(), smallSystemConfig()
	bounded.CMOBEntries = 32
	gotB, _ := runOwn(t, bounded, events)
	gotU, _ := runOwn(t, unbounded, events)
	if gotB.LostReads == 0 {
		t.Fatalf("bounded CMOB lost no reads: %+v", gotB)
	}
	if gotU.LostReads != 0 {
		t.Fatalf("unbounded CMOB lost %d reads", gotU.LostReads)
	}
	if gotU.Refills == 0 || gotB.Refills == 0 {
		t.Fatalf("no refills: bounded %+v, unbounded %+v", gotB, gotU)
	}
	probes, _ := runShared(t, []Config{bounded, unbounded}, events, 50, 3)
	if probes[0] != gotB || probes[1] != gotU {
		t.Fatalf("shared probes %+v, %+v; want %+v, %+v", probes[0], probes[1], gotB, gotU)
	}
	values := gotB.SeriesValues()
	if values["cmob_reads_lost"] != float64(gotB.LostReads) || values["refills"] != float64(gotB.Refills) {
		t.Fatalf("series values %v do not carry the counters of %+v", values, gotB)
	}
}

// TestNodeOutsideSystemIsError: a consumption by a node outside [0, Nodes)
// is an in-band *NodeError from the arrangement, RunColumns and RunSource,
// not a panic.
func TestNodeOutsideSystemIsError(t *testing.T) {
	cfg := smallSystemConfig()
	for _, node := range []mem.NodeID{4, -1} {
		events := []trace.Event{
			{Kind: trace.KindConsumption, Node: 1, Block: 64},
			{Kind: trace.KindConsumption, Node: node, Block: 64},
		}
		c := toColumns(events)
		var ne *NodeError
		arr, err := NewArrangement([]Config{cfg, cfg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := arr.Arrange(c.kinds, c.nodes, c.blocks, nil); !errors.As(err, &ne) || ne.Node != node || ne.Nodes != 4 {
			t.Fatalf("node %d: Arrange err = %v, want a *NodeError", node, err)
		}
		if err := NewSystem(cfg).RunColumns(c.kinds, c.nodes, c.blocks); !errors.As(err, &ne) {
			t.Fatalf("node %d: RunColumns err = %v, want a *NodeError", node, err)
		}
		if _, err := NewSystem(cfg).RunSource(&sliceSource{events: events}); !errors.As(err, &ne) {
			t.Fatalf("node %d: RunSource err = %v, want a *NodeError", node, err)
		}
	}
	other := cfg
	other.Nodes = 8
	if _, err := NewArrangement([]Config{cfg, other}); err == nil {
		t.Fatal("NewArrangement accepted configurations of different node counts")
	}
	if _, err := NewArrangement(nil); err == nil {
		t.Fatal("NewArrangement accepted no configurations")
	}
}

// FuzzSharedArrangement: random small event streams, random mixed cell
// configurations and random ring shapes; every System driven by the shared
// arrangement must end exactly where an independent System does.
func FuzzSharedArrangement(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed, uint8(4), uint16(600), uint8(3), uint8(16), uint8(2))
	}
	f.Add(int64(7), uint8(1), uint16(100), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, n uint16, cells, chunk, slots uint8) {
		rng := rand.New(rand.NewSource(seed))
		nn := 1 + int(nodes)%8
		events := randomEvents(rng, nn, int(n)%2000)
		cfgs := make([]Config, 1+int(cells)%6)
		for i := range cfgs {
			cfgs[i] = randomConfig(rng, nn)
		}
		checkShared(t, cfgs, events, 1+int(chunk)%128, 1+int(slots)%5)
	})
}
