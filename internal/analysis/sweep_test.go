package analysis

import (
	"errors"
	"testing"

	"tsm/internal/coherence"
	"tsm/internal/mem"
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
