package tsm

// File replay through the streamed pipeline. LoadTrace + EvaluateTSE
// materializes the whole event stream before evaluating it, which makes file
// replay memory-bound on large traces. The functions here instead drive the
// full TSE + timing stack directly from the trace file in bounded memory,
// decoding each trace file exactly ONCE: a single decode pass is teed into
// every consumer (the baseline timing model, the TSE timing model — whose
// TSE System also yields the coverage — or the Figure 12 models) by the
// fan-out engine in internal/pipeline, with each consumer on its own
// goroutine reading a cursor of the shared broadcast ring. The reports are
// bit-identical to the serial in-memory reference (EvaluateTSE,
// ComparePrefetchers) — proven by tests and pinned by the golden-file
// harness in testdata/. For whole sensitivity sweeps over one file, see
// sweep.go (EvaluateTSESweepFile): N configurations, still exactly one
// decode.

import (
	"tsm/internal/analysis"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/timing"
)

// ReplayMeta reads just the generation metadata embedded in a trace file.
func ReplayMeta(path string) (TraceMeta, error) {
	f, err := stream.OpenFile(path)
	if err != nil {
		return TraceMeta{}, err
	}
	meta := f.Meta()
	return meta, f.Close()
}

// replayContext rebuilds the generator, options and TSE configuration a
// trace file's metadata describes.
func replayContext(meta TraceMeta) (Generator, Options, error) {
	gen, err := GeneratorFor(meta)
	if err != nil {
		return nil, Options{}, err
	}
	return gen, OptionsFor(meta), nil
}

// EvaluateTSESource evaluates the paper's TSE configuration over a single
// pass of an event source: ONE decode of src is teed into the baseline
// timing model and the TSE timing model, each running concurrently on its
// own goroutine over the fan-out engine's default ring broadcast. The TSE
// timing model's own TSE System supplies the coverage and discards, so the
// TSE model runs once per event. The events are never materialized, and
// the Report is bit-identical to EvaluateTSE over the equivalent in-memory
// trace, whose coverage comes from an independent System. meta names the
// workload the source was generated from (as embedded in trace files).
func EvaluateTSESource(src EventSource, meta TraceMeta) (Report, error) {
	return evaluateTSESourceWith(pipeline.Config{}, src, meta)
}

// evaluateTSESourceWith is EvaluateTSESource under an explicit pipeline
// configuration — the observability seam. Consumers default to their model
// names in metrics and trace lanes.
func evaluateTSESourceWith(pcfg pipeline.Config, src EventSource, meta TraceMeta) (Report, error) {
	gen, opts, err := replayContext(meta)
	if err != nil {
		return Report{}, err
	}
	if pcfg.ConsumerNames == nil {
		pcfg.ConsumerNames = tseConsumerNames()
	}
	cfg := tseConfig(gen, opts)
	params := timingParams(gen, opts)
	base := timing.NewConsumer(params)
	params.TSE = &cfg
	withTSE := timing.NewConsumer(params)
	if err := pcfg.Run(src, base, withTSE); err != nil {
		return Report{}, err
	}
	return tseReport(withTSE.Result.TSE, base.Result, withTSE.Result), nil
}

// EvaluateTSEFile evaluates the paper's TSE configuration on a saved trace
// through the fused streamed pipeline: the file is decoded exactly once and
// the single pass feeds both timing consumers (see EvaluateTSESource), using
// the generation metadata embedded in the file. The trace is never
// materialized, and the Report is bit-identical to EvaluateTSE over
// LoadTrace's in-memory events. For parallel decode or ranged replay, see
// EvaluateTSEFileWith.
func EvaluateTSEFile(path string) (Report, error) {
	return EvaluateTSEFileWith(path, ReplayConfig{}, Instrumentation{})
}

// EvaluateAllSource runs the Figure 12 comparison — stride, both GHB
// variants and TSE — over a single pass of an event source: ONE decode of
// src is teed into all four models concurrently. The reports are identical
// to ComparePrefetchers over the equivalent in-memory trace, in the same
// order.
func EvaluateAllSource(src EventSource, meta TraceMeta) ([]Report, error) {
	return evaluateAllSourceWith(pipeline.Config{}, src, meta)
}

// evaluateAllSourceWith is EvaluateAllSource under an explicit pipeline
// configuration — the observability seam. Consumers default to their model
// names in metrics and trace lanes.
func evaluateAllSourceWith(pcfg pipeline.Config, src EventSource, meta TraceMeta) ([]Report, error) {
	gen, opts, err := replayContext(meta)
	if err != nil {
		return nil, err
	}
	cfg := tseConfig(gen, opts)
	specs := analysis.BaselineSpecs(opts.Nodes)
	models := make([]*analysis.ModelConsumer, len(specs))
	consumers := make([]pipeline.Consumer, 0, len(specs)+1)
	names := make([]string, 0, len(specs)+1)
	for i, spec := range specs {
		models[i] = analysis.NewModelConsumer(spec.New())
		consumers = append(consumers, models[i])
		names = append(names, spec.Name)
	}
	tseCov := analysis.NewTSEConsumer(cfg)
	consumers = append(consumers, tseCov)
	if pcfg.ConsumerNames == nil {
		pcfg.ConsumerNames = append(names, "TSE")
	}
	if err := pcfg.Run(src, consumers...); err != nil {
		return nil, err
	}
	reports := make([]Report, 0, len(consumers))
	for _, m := range models {
		reports = append(reports, coverageReport(m.Result))
	}
	return append(reports, coverageReport(tseCov.Result)), nil
}

// EvaluateAllFile runs the Figure 12 comparison on a saved trace through the
// fused streamed pipeline: the file is decoded exactly once and the single
// pass feeds every model (see EvaluateAllSource). The reports are identical
// to ComparePrefetchers over the loaded trace, in the same order. For
// parallel decode or ranged replay, see EvaluateAllFileWith.
func EvaluateAllFile(path string) ([]Report, error) {
	return EvaluateAllFileWith(path, ReplayConfig{}, Instrumentation{})
}
