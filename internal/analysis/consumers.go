package analysis

import (
	"io"

	"tsm/internal/obs"
	"tsm/internal/pipeline"
	"tsm/internal/prefetch"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/tse"
)

// The consumer adapters below let the coverage evaluations ride the
// single-decode fan-out engine in internal/pipeline: each implements
// Run(stream.Source) error (pipeline.Consumer, satisfied structurally) by
// draining its private tee of the stream and storing the result for the
// caller to collect once the pipeline run returns. The Sweep evaluator
// (sweep.go) builds directly on TSEConsumer: one consumer per sweep cell,
// all riding a single pipeline.Run.
//
// Both consumers also satisfy pipeline.Sampler (again structurally): when
// the run attaches an obs.SeriesSet, the pipeline pumps SampleAt at chunk
// boundaries — on the consumer's own goroutine, between events — and the
// consumer records its live cumulative state as one epoch sample. The final
// flush lands a sample whose coverage equals the end-of-run report exactly
// (tse.System.Probe does not flush; see LiveStats).

// ModelConsumer evaluates one baseline prefetcher over its tee of the
// stream. After a successful Run, Result holds the coverage summary.
type ModelConsumer struct {
	model prefetch.Model
	// Result is the coverage summary. It is updated live during Run (the
	// sampling pump reads it mid-stream) and complete once Run returns nil.
	Result CoverageResult
	series *obs.Series
}

// NewModelConsumer wraps a baseline prefetcher model.
func NewModelConsumer(m prefetch.Model) *ModelConsumer {
	return &ModelConsumer{model: m}
}

// Run implements the pipeline consumer contract.
func (c *ModelConsumer) Run(src stream.Source) error {
	c.Result = CoverageResult{Name: c.model.Name()}
	return evaluateModelInto(c.model, src, &c.Result)
}

// AttachSeries implements pipeline.Sampler.
func (c *ModelConsumer) AttachSeries(s *obs.Series) { c.series = s }

// SampleAt implements pipeline.Sampler: one epoch sample of the live
// cumulative coverage counts. Runs on the consumer's goroutine between
// events.
func (c *ModelConsumer) SampleAt(seq uint64, final bool) {
	if !c.series.Ready(seq, final) {
		return
	}
	c.series.Record(seq, map[string]float64{
		"consumptions": float64(c.Result.Consumptions),
		"covered":      float64(c.Result.Covered),
		"coverage":     c.Result.Coverage(),
	})
}

// evaluateModelInto runs the model evaluation loop updating res IN PLACE
// after every event, which is what lets a sampling consumer read live
// cumulative state mid-run (ModelConsumer.SampleAt) — the counts at any
// chunk boundary are exactly the counts a run truncated there would report.
// Fetched/Discards are only known at Finish and set on a clean end of
// stream. The numbers are bit-identical to EvaluateModel over the same
// events in memory.
func evaluateModelInto(m prefetch.Model, src stream.Source, res *CoverageResult) error {
	if ss, ok := src.(stream.SoASource); ok {
		return evaluateModelColumns(m, ss, res)
	}
	for {
		e, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch e.Kind {
		case trace.KindConsumption:
			res.Consumptions++
			if m.Consumption(e) {
				res.Covered++
			}
		case trace.KindWrite:
			m.Write(e)
		}
	}
	res.Fetched, res.Discards = m.Finish()
	return nil
}

// evaluateModelColumns is evaluateModelInto over struct-of-arrays chunks:
// the classify switch sweeps the dense kind column — no interface call, no
// 40-byte struct copy per event — and only the consumption/write rows the
// model actually observes are reassembled into events. Results are
// bit-identical to the per-event path.
func evaluateModelColumns(m prefetch.Model, ss stream.SoASource, res *CoverageResult) error {
	for {
		c, err := ss.NextChunkSoA()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i, k := range c.Kind {
			switch k {
			case trace.KindConsumption:
				res.Consumptions++
				if m.Consumption(c.Event(i)) {
					res.Covered++
				}
			case trace.KindWrite:
				m.Write(c.Event(i))
			}
		}
	}
	res.Fetched, res.Discards = m.Finish()
	return nil
}

// TSEConsumer evaluates the trace-driven TSE coverage model over its tee of
// the stream. After a successful Run, Result holds the common coverage
// summary and Full the complete tse.Result (stream lengths, traffic, CMOB
// footprint).
type TSEConsumer struct {
	cfg tse.Config
	// Result is the coverage summary, valid after Run returns nil.
	Result CoverageResult
	// Full is the complete TSE result, valid after Run returns nil.
	Full   tse.Result
	series *obs.Series
	sys    *tse.System // live system while Run is in flight (sampling only)
	// arranged reads the CMOB logs and pointer lists from the shared
	// arrangement the run's Stage publishes with each chunk (SweepWith).
	arranged bool
}

// NewTSEConsumer wraps a TSE system model built from cfg at Run time.
func NewTSEConsumer(cfg tse.Config) *TSEConsumer {
	return &TSEConsumer{cfg: cfg}
}

// Run implements the pipeline consumer contract. The system is built here
// and exposed to SampleAt for the duration of the run; the final numbers are
// bit-identical to EvaluateTSE over the same events in memory. A source holding struct-of-arrays chunks (the pipeline's fan-out sources,
// the parallel decoder) is driven through the columnar inner loop instead —
// same numbers, no per-event interface call.
func (c *TSEConsumer) Run(src stream.Source) error {
	sys := tse.NewSystem(c.cfg)
	c.sys = sys
	var full tse.Result
	var err error
	if ps, ok := src.(pipeline.StagedSource); ok && c.arranged {
		full, err = runTSEArranged(sys, ps)
	} else if ss, ok := src.(stream.SoASource); ok {
		full, err = runTSEColumns(sys, ss)
	} else {
		full, err = sys.RunSource(src)
	}
	c.sys = nil
	c.Result = CoverageResult{
		Name:         sys.Name(),
		Consumptions: full.Consumptions,
		Covered:      full.Covered,
		Fetched:      full.BlocksFetched,
		Discards:     full.Discards,
	}
	c.Full = full
	return err
}

// runTSEColumns drives the system over dense column chunks, mirroring
// RunSource's terminal semantics exactly: Finish runs on both the clean and
// the error ending, and the partial result accompanies a terminal error.
func runTSEColumns(sys *tse.System, ss stream.SoASource) (tse.Result, error) {
	for {
		ch, err := ss.NextChunkSoA()
		if err == io.EOF {
			return sys.Finish(), nil
		}
		if err == nil {
			err = sys.RunColumns(ch.Kind, ch.Node, ch.Block)
		}
		if err != nil {
			return sys.Finish(), err
		}
	}
}

// runTSEArranged is runTSEColumns for a sweep cell driven by the shared
// arrangement published with each chunk.
func runTSEArranged(sys *tse.System, ps pipeline.StagedSource) (tse.Result, error) {
	for {
		ch, staged, err := ps.NextChunkStaged()
		if err == io.EOF {
			return sys.Finish(), nil
		}
		if err == nil {
			err = sys.RunArranged(ch.Kind, ch.Node, ch.Block, staged.(*tse.ArrangedChunk))
		}
		if err != nil {
			return sys.Finish(), err
		}
	}
}

// AttachSeries implements pipeline.Sampler.
func (c *TSEConsumer) AttachSeries(s *obs.Series) { c.series = s }

// SampleAt implements pipeline.Sampler: one epoch sample probed from the
// live system — cumulative coverage plus the resident state (SVB occupancy,
// CMOB storage) the end-of-run result cannot show. Runs on the consumer's
// goroutine between events; outside Run (c.sys nil) it is a no-op.
func (c *TSEConsumer) SampleAt(seq uint64, final bool) {
	if c.sys == nil || !c.series.Ready(seq, final) {
		return
	}
	c.series.Record(seq, c.sys.Probe().SeriesValues())
}
