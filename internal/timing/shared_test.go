package timing

import (
	"reflect"
	"slices"
	"testing"

	"tsm/internal/analysis"
	"tsm/internal/coherence"
	"tsm/internal/mem"
	"tsm/internal/trace"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

// sharedTrace generates a small 4-node trace of the named workload.
func sharedTrace(t *testing.T, name string) (*trace.Trace, workload.TimingProfile) {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	gen := spec.New(workload.Config{Nodes: 4, Seed: 7, Scale: 0.05})
	eng := coherence.New(coherence.Config{Nodes: 4, Geometry: mem.DefaultGeometry(), PointersPerEntry: 2})
	tr, err := eng.RunFrom(gen.Emit)
	if err != nil {
		t.Fatal(err)
	}
	return tr, gen.Timing()
}

// sharedConfigs are the SVB sizes and policies the shared-System tests run:
// unbounded, smaller than the lookahead, and the paper's 32 entries.
var sharedConfigs = []struct {
	svb  int
	fifo bool
}{{0, false}, {2, false}, {8, false}, {32, false}, {2, true}, {32, true}}

// TestSharedSystemOutcome: the TSE System inside a timing simulation gives,
// event by event, the same outcome as an independent tse.System fed the same
// events: the same consumptions covered and the same blocks fetched, in
// order. Its end-of-run result (Result.TSE) equals that System's Finish and
// analysis.EvaluateTSE field for field. This is what lets a replay take its
// coverage from the timing run instead of running a second TSE model.
func TestSharedSystemOutcome(t *testing.T) {
	for _, name := range []string{"db2", "em3d", "pagerank"} {
		tr, prof := sharedTrace(t, name)
		var total uint64
		for _, c := range sharedConfigs {
			p := tseParams(4, prof)
			p.TSE.SVBEntries = c.svb
			p.TSE.SVBFIFOReplacement = c.fifo
			sim := newSimulator(p)
			ref := tse.NewSystem(*p.TSE)
			var fetched []mem.BlockAddr
			for n := 0; n < 4; n++ {
				ref.Engine(mem.NodeID(n)).SetFetchHandler(func(b mem.BlockAddr) { fetched = append(fetched, b) })
			}
			var covered uint64
			for i, e := range tr.Events {
				before := sim.res.FullCovered + sim.res.PartialCovered
				if err := sim.event(e); err != nil {
					t.Fatal(err)
				}
				switch e.Kind {
				case trace.KindWrite:
					ref.Write(e)
				case trace.KindConsumption:
					fetched = fetched[:0]
					want := ref.Consumption(e)
					got := sim.res.FullCovered+sim.res.PartialCovered != before
					if got != want {
						t.Fatalf("%s svb=%d fifo=%v event %d: timing System covered=%v, independent System %v", name, c.svb, c.fifo, i, got, want)
					}
					if want {
						covered++
					}
					if pending := sim.nodes[e.Node].pendingFetches; !slices.Equal(pending, fetched) {
						t.Fatalf("%s svb=%d fifo=%v event %d: timing System fetched %v, independent System %v", name, c.svb, c.fifo, i, pending, fetched)
					}
				}
			}
			res := sim.finish()
			if want := ref.Finish(); !reflect.DeepEqual(res.TSE, want) {
				t.Fatalf("%s svb=%d fifo=%v: Result.TSE %+v, independent System %+v", name, c.svb, c.fifo, res.TSE, want)
			}
			if _, want := analysis.EvaluateTSE(*p.TSE, tr); !reflect.DeepEqual(res.TSE, want) {
				t.Fatalf("%s svb=%d fifo=%v: Result.TSE %+v, analysis.EvaluateTSE %+v", name, c.svb, c.fifo, res.TSE, want)
			}
			if res.TSE.Covered != covered {
				t.Fatalf("%s svb=%d fifo=%v: %d consumptions covered, Result.TSE says %d", name, c.svb, c.fifo, covered, res.TSE.Covered)
			}
			total += covered
		}
		if total == 0 {
			t.Fatalf("%s: no configuration covered a consumption", name)
		}
	}
}
