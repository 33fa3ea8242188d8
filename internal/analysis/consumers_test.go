package analysis

import (
	"errors"
	"testing"

	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/tse"
)

// TestModelConsumerMatchesEvaluateModel: a baseline prefetcher run as a
// pipeline consumer must be bit-identical to the serial in-memory
// reference, both per event over a plain source and column-wise over the
// fan-out engine's chunk sources.
func TestModelConsumerMatchesEvaluateModel(t *testing.T) {
	tr, base := sweepTestTrace(t)
	for _, spec := range BaselineSpecs(base.Nodes) {
		want := EvaluateModel(spec.New(), tr)
		direct := NewModelConsumer(spec.New())
		if err := direct.Run(stream.TraceSource(tr)); err != nil {
			t.Fatal(err)
		}
		a, b := NewModelConsumer(spec.New()), NewModelConsumer(spec.New())
		if err := pipeline.Run(stream.TraceSource(tr), a, b); err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*ModelConsumer{"direct": direct, "fan-out a": a, "fan-out b": b} {
			if c.Result != want {
				t.Errorf("%s %s: consumer %+v, want serial %+v", spec.Name, name, c.Result, want)
			}
			if c.Result.Name != spec.Name {
				t.Errorf("%s %s: result named %q", spec.Name, name, c.Result.Name)
			}
		}
	}
}

// TestEvaluateTSEStreamMatchesEvaluateTSE: the streamed TSE evaluation — a
// TSEConsumer run over a plain stream.Source — must be bit-identical to the
// materialized EvaluateTSE on a real workload trace.
func TestEvaluateTSEStreamMatchesEvaluateTSE(t *testing.T) {
	tr, cfg := sweepTestTrace(t)
	wantCov, wantFull := EvaluateTSE(cfg, tr)
	c := NewTSEConsumer(cfg)
	if err := c.Run(stream.TraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	if c.Result != wantCov {
		t.Fatalf("streamed coverage %+v differs from materialized %+v", c.Result, wantCov)
	}
	gotFull := c.Full
	if gotFull.Consumptions != wantFull.Consumptions || gotFull.Covered != wantFull.Covered ||
		gotFull.Discards != wantFull.Discards || gotFull.Traffic != wantFull.Traffic ||
		gotFull.CMOBPeakBytes != wantFull.CMOBPeakBytes {
		t.Fatalf("streamed full result differs: %+v vs %+v", gotFull, wantFull)
	}
}

// TestEvaluateTSEStreamPropagatesError: a source error must be the streamed
// TSE evaluation's terminal error.
func TestEvaluateTSEStreamPropagatesError(t *testing.T) {
	cfg := tse.DefaultConfig()
	cfg.Nodes = 2
	if err := NewTSEConsumer(cfg).Run(brokenSource{}); !errors.Is(err, errBroken) {
		t.Fatalf("err = %v, want errBroken", err)
	}
}
