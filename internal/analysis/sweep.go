package analysis

import (
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/tse"
)

// The sweep evaluator: an entire sensitivity sweep — many TSE configurations
// over the SAME access stream — evaluated as N concurrent consumers of ONE
// pass. The paper's Figures 7–9 (and the node-count study) are exactly this
// shape: before this file existed the experiments layer ran one full
// EvaluateTSE pass per sweep cell (Figure 7 alone was 44 passes over eleven
// traces), paying the stream walk once per cell; now each workload's stream
// is walked once per figure, however many cells the figure sweeps. This is
// the inter-query sharing argument of Shared Arrangements applied to trace
// evaluation: maintain one stream, share it across every concurrent query.

// SweepResult is one cell of a TSE configuration sweep: the common coverage
// summary plus the full TSE result (stream lengths, traffic, CMOB
// footprint), exactly what EvaluateTSE returns for the cell's config.
type SweepResult struct {
	// Coverage is the cell's coverage/discard summary.
	Coverage CoverageResult
	// Full is the cell's complete TSE result.
	Full tse.Result
}

// Sweep evaluates every TSE configuration as a concurrent consumer of a
// SINGLE pass over src: the fan-out engine in internal/pipeline decodes the
// stream exactly once and broadcasts it (one shared ring of chunks,
// per-cell cursors), so the cost of adding a sweep cell is one more TSE
// model, never another walk of the stream. Results are returned in config
// order and are bit-identical to running EvaluateTSE per cell, a property
// the differential tests pin. An empty config list returns no results
// without reading src.
func Sweep(cfgs []tse.Config, src stream.Source) ([]SweepResult, error) {
	return SweepWith(pipeline.Config{}, cfgs, src)
}

// SweepTrace is Sweep over an in-memory trace.
func SweepTrace(cfgs []tse.Config, tr *trace.Trace) ([]SweepResult, error) {
	return Sweep(cfgs, stream.TraceSource(tr))
}

// SweepWith is Sweep under an explicit pipeline configuration — the seam the
// instrumented callers (metrics, tracing, series) use.
//
// With two or more cells of one node count, the cells share one
// tse.Arrangement: the CMOB logs and directory pointer lists, which no
// swept parameter changes, are built once per chunk by a pipeline Stage
// ahead of the cells, and each cell keeps only its own CMOB append counts.
// A single cell records its own, as a standalone System does.
func SweepWith(pcfg pipeline.Config, cfgs []tse.Config, src stream.Source) ([]SweepResult, error) {
	cells := make([]*TSEConsumer, len(cfgs))
	consumers := make([]pipeline.Consumer, len(cfgs))
	for i, cfg := range cfgs {
		cells[i] = NewTSEConsumer(cfg)
		consumers[i] = cells[i]
	}
	if len(cfgs) > 1 {
		if arr, err := tse.NewArrangement(cfgs); err == nil {
			pcfg.Stage = arrangeStage{arr}
			for _, c := range cells {
				c.arranged = true
			}
		}
	}
	if err := pcfg.Run(src, consumers...); err != nil {
		return nil, err
	}
	out := make([]SweepResult, len(cells))
	for i, c := range cells {
		out[i] = SweepResult{Coverage: c.Result, Full: c.Full}
	}
	return out, nil
}

// arrangeStage builds a sweep's shared tse.Arrangement as a pipeline Stage:
// one ArrangedChunk per broadcast chunk, published with the chunk.
type arrangeStage struct{ arr *tse.Arrangement }

func (arrangeStage) Name() string { return "arrange" }

func (a arrangeStage) Build(c *stream.ChunkSoA, prev any) (any, error) {
	ac, _ := prev.(*tse.ArrangedChunk)
	return a.arr.Arrange(c.Kind, c.Node, c.Block, ac)
}
