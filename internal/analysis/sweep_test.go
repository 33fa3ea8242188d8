package analysis

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tsm/internal/coherence"
	"tsm/internal/mem"
	"tsm/internal/obs"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

// sweepTestTrace builds one real workload trace for the sweep tests.
func sweepTestTrace(t *testing.T) (*trace.Trace, tse.Config) {
	t.Helper()
	gen := workload.NewOLTP(workload.Config{Nodes: 4, Seed: 3, Scale: 0.05}, "DB2")
	eng := coherence.New(coherence.Config{Nodes: 4, Geometry: mem.DefaultGeometry(), PointersPerEntry: 2})
	tr, err := eng.RunFrom(gen.Emit)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tse.DefaultConfig()
	cfg.Nodes = 4
	cfg.Lookahead = gen.Timing().Lookahead
	return tr, cfg
}

// sweepTestConfigs varies the lookahead across n cells from a base config.
func sweepTestConfigs(base tse.Config, n int) []tse.Config {
	lookaheads := []int{1, 2, 4, 8, 16, 24}
	cfgs := make([]tse.Config, n)
	for i := range cfgs {
		cfg := base
		cfg.Lookahead = lookaheads[i%len(lookaheads)]
		cfgs[i] = cfg
	}
	return cfgs
}

// countingSource counts Next calls: a full single pass over an N-event trace
// is exactly N+1 calls (the events plus one io.EOF).
type countingSource struct {
	src   stream.Source
	nexts int
}

func (c *countingSource) Next() (trace.Event, error) {
	c.nexts++
	return c.src.Next()
}

// TestSweepSinglePassMatchesPerCell is the sweep evaluator's contract in one
// test: evaluating N configurations through Sweep must (a) walk the stream
// exactly ONCE — N events + one EOF — and (b) produce per-cell results
// bit-identical to one EvaluateTSE pass per cell. The one-cell case runs a
// TSEConsumer straight over the plain source; the wider ones read the
// fan-out engine's column chunks.
func TestSweepSinglePassMatchesPerCell(t *testing.T) {
	tr, base := sweepTestTrace(t)
	for _, cells := range []int{1, 4, 16} {
		cfgs := sweepTestConfigs(base, cells)
		src := &countingSource{src: stream.TraceSource(tr)}
		got, err := Sweep(cfgs, src)
		if err != nil {
			t.Fatal(err)
		}
		if want := tr.Len() + 1; src.nexts != want {
			t.Fatalf("%d-cell sweep read the source %d times, want %d (one pass)", cells, src.nexts, want)
		}
		if len(got) != cells {
			t.Fatalf("sweep returned %d cells, want %d", len(got), cells)
		}
		for i, cfg := range cfgs {
			wantCov, wantFull := EvaluateTSE(cfg, tr)
			if got[i].Coverage != wantCov {
				t.Fatalf("cell %d coverage %+v differs from per-cell EvaluateTSE %+v", i, got[i].Coverage, wantCov)
			}
			if got[i].Full.Covered != wantFull.Covered || got[i].Full.Discards != wantFull.Discards ||
				got[i].Full.Traffic != wantFull.Traffic || got[i].Full.CMOBPeakBytes != wantFull.CMOBPeakBytes {
				t.Fatalf("cell %d full result differs: %+v vs %+v", i, got[i].Full, wantFull)
			}
		}
	}
}

// TestSweepEmpty: no configurations means no results and an unread source.
func TestSweepEmpty(t *testing.T) {
	tr, _ := sweepTestTrace(t)
	src := &countingSource{src: stream.TraceSource(tr)}
	got, err := Sweep(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty sweep returned %d cells", len(got))
	}
	if src.nexts != 0 {
		t.Fatalf("empty sweep read the source %d times", src.nexts)
	}
}

// TestSweepStrategiesAgree: every way of feeding the sweep cells must give
// identical results — the fan-out ring at its default chunking, the ring at a
// narrow one (7-event chunks through a one-slot window, so the producer
// waits on the slowest cell at almost every chunk), and SweepTrace over the
// materialized trace.
func TestSweepStrategiesAgree(t *testing.T) {
	tr, base := sweepTestTrace(t)
	cfgs := sweepTestConfigs(base, 6)
	ring, err := Sweep(cfgs, stream.TraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := SweepWith(pipeline.Config{ChunkEvents: 7, ChunkBuffer: 1}, cfgs, stream.TraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	viaTrace, err := SweepTrace(cfgs, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if narrow[i].Coverage != ring[i].Coverage {
			t.Fatalf("cell %d: narrow ring %+v != default ring %+v", i, narrow[i].Coverage, ring[i].Coverage)
		}
		if viaTrace[i].Coverage != ring[i].Coverage {
			t.Fatalf("cell %d: SweepTrace %+v != Sweep %+v", i, viaTrace[i].Coverage, ring[i].Coverage)
		}
	}
}

// brokenSource fails immediately.
type brokenSource struct{}

var errBroken = errors.New("analysis test: source failed")

func (brokenSource) Next() (trace.Event, error) { return trace.Event{}, errBroken }

// TestSweepPropagatesSourceError: a terminal decode error must fail the
// sweep with that error, whether the single cell reads the source directly
// or several cells share it through the fan-out engine.
func TestSweepPropagatesSourceError(t *testing.T) {
	_, base := sweepTestTrace(t)
	for _, cells := range []int{1, 3} {
		if _, err := Sweep(sweepTestConfigs(base, cells), brokenSource{}); !errors.Is(err, errBroken) {
			t.Fatalf("%d cells: err = %v, want errBroken", cells, err)
		}
	}
}

// TestSweepSharedArrangementMatchesSystems: sweep cells that share one
// arrangement, fed through the ring at its default shape and at a narrow
// one (a one-slot window of 7-event chunks), return Results deeply equal
// to independent Systems, for bounded, unbounded and mixed CMOB cells of
// every compared-streams width. Their final series samples carry the same
// mechanism counters (lost CMOB reads, refills) as the independent
// System's Probe.
func TestSweepSharedArrangementMatchesSystems(t *testing.T) {
	tr, base := sweepTestTrace(t)
	var cfgs []tse.Config
	for i, capacity := range []int{0, 32, 512, 4096} {
		cfg := base
		cfg.CMOBEntries = capacity
		cfg.ComparedStreams = 1 + i
		cfgs = append(cfgs, cfg)
	}
	for _, pcfg := range []pipeline.Config{{}, {ChunkEvents: 7, ChunkBuffer: 1}} {
		for _, set := range [][]tse.Config{cfgs, cfgs[1:]} {
			series := obs.NewSeriesSet()
			pcfg.Series = series
			got, err := SweepWith(pcfg, set, stream.TraceSource(tr))
			if err != nil {
				t.Fatal(err)
			}
			snap := series.Snapshot()
			for i, cfg := range set {
				sys := tse.NewSystem(cfg)
				for _, e := range tr.Events {
					switch e.Kind {
					case trace.KindConsumption:
						sys.Consumption(e)
					case trace.KindWrite:
						sys.Write(e)
					}
				}
				probe := sys.Probe()
				if want := sys.Finish(); !reflect.DeepEqual(got[i].Full, want) {
					t.Fatalf("%+v cell %d: shared %+v != independent %+v", pcfg, i, got[i].Full, want)
				}
				pts := snap.Series[fmt.Sprint(i)].Points
				final := pts[len(pts)-1].Values
				if final["cmob_reads_lost"] != float64(probe.LostReads) || final["refills"] != float64(probe.Refills) {
					t.Fatalf("%+v cell %d: sampled counters %v, want %+v", pcfg, i, final, probe)
				}
				if cfg.CMOBEntries == 32 && probe.LostReads == 0 {
					t.Fatalf("cell %d: a 32-entry CMOB lost no reads", i)
				}
			}
		}
	}
}

// TestSweepBadNodeIsError: a consumption by a node outside the sweep's
// node count fails the sweep in band, with the arrangement's *NodeError
// for a shared sweep and the System's for a single cell.
func TestSweepBadNodeIsError(t *testing.T) {
	tr, base := sweepTestTrace(t)
	events := append(append([]trace.Event(nil), tr.Events[:500]...),
		trace.Event{Kind: trace.KindConsumption, Node: 4, Block: 64})
	for _, cells := range []int{1, 3} {
		got, err := Sweep(sweepTestConfigs(base, cells), stream.NewSliceSource(events))
		var ne *tse.NodeError
		if !errors.As(err, &ne) || got != nil {
			t.Fatalf("%d cells: results %v, err = %v, want a *tse.NodeError and no results", cells, got, err)
		}
	}
}

// TestSingleCellSweepBuildsNoArrangement: only a sweep of two or more
// cells shares an arrangement; a single cell records its own CMOB, so the
// run has no arrange stage.
func TestSingleCellSweepBuildsNoArrangement(t *testing.T) {
	tr, base := sweepTestTrace(t)
	for cells, want := range map[int]bool{1: false, 2: true} {
		m := obs.NewRegistry()
		if _, err := SweepWith(pipeline.Config{Metrics: m}, sweepTestConfigs(base, cells), stream.TraceSource(tr)); err != nil {
			t.Fatal(err)
		}
		if _, got := m.Snapshot().Counters["pipeline.stage.arrange.busy_ns"]; got != want {
			t.Fatalf("%d-cell sweep: arrange stage present = %v, want %v", cells, got, want)
		}
	}
}
