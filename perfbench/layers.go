package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tsm"
	"tsm/internal/analysis"
	"tsm/internal/coherence"
	"tsm/internal/config"
	"tsm/internal/experiments"
	"tsm/internal/mem"
	"tsm/internal/pipeline"
	"tsm/internal/prefetch"
	"tsm/internal/stream"
	"tsm/internal/timing"
	"tsm/internal/trace"
	"tsm/internal/tse"
)

// The traced run. Each layer's public function is called alone, from this
// file, over the workload's own inputs (decoded into memory first where the
// layer reads events), and timed here by process CPU. Nothing inside the
// program is instrumented. A *_share_pct divides a layer's CPU, counted as
// many times as one op runs that layer over each input, by the CPU of one
// untraced op measured in the same round.

// drainKind is how a drain-only broadcast consumer pulls events: the way the
// consumer it stands in for pulls them.
type drainKind int

const (
	drainColumns drainKind = iota // column chunks, as the TSE consumer does
	drainEvents                   // one event at a time, as timing does
)

func (k drainKind) consumer() pipeline.Consumer {
	if k == drainColumns {
		return pipeline.ConsumerFunc(func(src stream.Source) error {
			ss, ok := src.(stream.SoASource)
			if !ok {
				return fmt.Errorf("broadcast source %T has no column chunks", src)
			}
			for {
				if _, err := ss.NextChunkSoA(); err != nil {
					return eofNil(err)
				}
			}
		})
	}
	return pipeline.ConsumerFunc(func(src stream.Source) error {
		for {
			if _, err := src.Next(); err != nil {
				return eofNil(err)
			}
		}
	})
}

func eofNil(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}

// chunkSource yields in-memory events a codec chunk at a time, the shape the
// serial decoder hands the pipeline, without the decode.
type chunkSource struct {
	events []trace.Event
	pos    int
}

func (s *chunkSource) NextChunk() ([]trace.Event, error) {
	if s.pos >= len(s.events) {
		return nil, io.EOF
	}
	hi := min(s.pos+stream.DefaultChunkEvents, len(s.events))
	c := s.events[s.pos:hi]
	s.pos = hi
	return c, nil
}

func (s *chunkSource) Next() (trace.Event, error) {
	if s.pos >= len(s.events) {
		return trace.Event{}, io.EOF
	}
	s.pos++
	return s.events[s.pos-1], nil
}

// columnSource yields in-memory column chunks, the shape the pipeline's
// broadcast hands a column consumer.
type columnSource struct {
	chunks []*stream.ChunkSoA
	i, j   int
}

func (s *columnSource) NextChunkSoA() (*stream.ChunkSoA, error) {
	if s.i >= len(s.chunks) {
		return nil, io.EOF
	}
	c := s.chunks[s.i]
	if s.j > 0 {
		v := c.Slice(s.j, c.Len())
		c = &v
	}
	s.i, s.j = s.i+1, 0
	return c, nil
}

func (s *columnSource) Next() (trace.Event, error) {
	if s.i >= len(s.chunks) {
		return trace.Event{}, io.EOF
	}
	e := s.chunks[s.i].Event(s.j)
	if s.j++; s.j == s.chunks[s.i].Len() {
		s.i, s.j = s.i+1, 0
	}
	return e, nil
}

// layerRuns counts how many times one op runs a layer over an input: the
// coverage TSE, the timing pair, the lookahead sweep's cells, the broadcast
// and the file decode.
type layerRuns struct {
	tse, timing, cells, broadcast, decode int
}

// layerInput is an input with the in-memory forms the layers read.
type layerInput struct {
	*input
	layerRuns
	accesses []mem.Access
	columns  []*stream.ChunkSoA
}

func newLayerInput(in *input) (*layerInput, error) {
	li := &layerInput{input: in}
	err := in.spec.New(in.cfg).Emit(func(a mem.Access) error {
		li.accesses = append(li.accesses, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ev := in.tr.Events
	for lo := 0; lo < len(ev); lo += stream.DefaultChunkEvents {
		hi := min(lo+stream.DefaultChunkEvents, len(ev))
		c := stream.NewChunkSoA(hi - lo)
		c.AppendEvents(ev[lo:hi])
		li.columns = append(li.columns, c)
	}
	return li, nil
}

// modelSource feeds a TSE model alone in the shape the op feeds it: column
// chunks behind a broadcast, single events when the pipeline passes the
// source straight through.
func (r *layerRun) modelSource(li *layerInput) stream.Source {
	if len(r.inst.consumers) > 1 {
		return &columnSource{chunks: li.columns}
	}
	return stream.TraceSource(li.tr)
}

// layerRun holds one traced run's inputs and per-round samples.
type layerRun struct {
	inst    *instance
	inputs  []*layerInput
	samples map[string][]float64
	// ops counts the ops the traced run made; their timings are unused.
	ops loopResult
	// sim holds the simulated counts of the last round.
	sim map[string]float64
}

func newLayerRun(inst *instance, dir string) (*layerRun, error) {
	r := &layerRun{inst: inst, samples: map[string][]float64{}}
	for _, in := range inst.inputs {
		if in.path == "" {
			if err := writeInputFile(in, dir); err != nil {
				return nil, err
			}
		}
		li, err := newLayerInput(in)
		if err != nil {
			return nil, err
		}
		li.layerRuns = inst.runs(in)
		r.inputs = append(r.inputs, li)
	}
	return r, nil
}

// writeInputFile writes an in-memory input as a trace file, so the codec
// layers can read it.
func writeInputFile(in *input, dir string) error {
	in.path = tracePath(dir, in)
	_, err := stream.WriteFile(in.path, in.meta(), stream.TraceSource(in.tr))
	return err
}

func (r *layerRun) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// perInput measures fn over every input in turn and returns each input's
// CPU in ns, and the heap bytes allocated over all of them.
func (r *layerRun) perInput(fn func(i int, li *layerInput) error) ([]float64, uint64, error) {
	cpu := make([]float64, len(r.inputs))
	var alloc uint64
	for i, li := range r.inputs {
		u, err := measure(func() error { return fn(i, li) })
		if err != nil {
			return nil, 0, err
		}
		cpu[i] = float64(u.cpu.Nanoseconds())
		alloc += u.alloc
	}
	return cpu, alloc, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// weighted sums each input's cost times a per-input count.
func (r *layerRun) weighted(cost []float64, count func(li *layerInput) int) float64 {
	var s float64
	for i, li := range r.inputs {
		s += cost[i] * float64(count(li))
	}
	return s
}

func (r *layerRun) events() uint64 {
	var n uint64
	for _, li := range r.inputs {
		n += uint64(li.tr.Len())
	}
	return n
}

// round measures every layer once and records one sample per metric.
func (r *layerRun) round() error {
	events := r.events()
	nsPerEvent := func(cost []float64) float64 { return perEvent(sum(cost), events) }

	// The op itself, untraced, then with the public metrics attached.
	op, err := measure(r.inst.op)
	countOp(&r.ops, err)
	m := tsm.NewMetrics()
	obsOp, err := measure(func() error { return r.inst.observedOp(m) })
	countOp(&r.ops, err)
	opCPU := float64(op.cpu.Nanoseconds())
	r.add("tsm.op_cpu_ns_per_event", perEvent(opCPU, r.inst.events))
	r.add("tsm.trace_overhead_pct", sharePct(float64(obsOp.cpu.Nanoseconds())-opCPU, opCPU))
	producer, consumer := stallFractions(m.Snapshot())
	r.add("pipeline.producer_stall_frac", producer)
	r.add("pipeline.consumer_stall_frac", consumer)

	// workload and coherence: generation, then classification of the
	// collected accesses.
	var accesses, classified uint64
	emit, _, err := r.perInput(func(_ int, li *layerInput) error {
		return li.spec.New(li.cfg).Emit(func(mem.Access) error { accesses++; return nil })
	})
	if err != nil {
		return fmt.Errorf("workload.Emit: %w", err)
	}
	classify, _, err := r.perInput(func(_ int, li *layerInput) error {
		eng := coherence.New(coherence.Config{Nodes: li.cfg.Nodes, Geometry: config.DefaultSystem().Geometry, PointersPerEntry: 2})
		return eng.RunSource(coherence.SliceAccesses(li.accesses), func(trace.Event) error { classified++; return nil })
	})
	if err != nil {
		return fmt.Errorf("coherence.RunSource: %w", err)
	}
	r.add("workload.emit_ns_per_access", perEvent(sum(emit), accesses))
	r.add("coherence.classify_ns_per_access", perEvent(sum(classify), accesses))
	r.add("coherence.events_per_access", perEvent(float64(classified), accesses))

	// stream: encode to a discarding sink, serial decode, mmap decode.
	var encoded int64
	encode, _, err := r.perInput(func(_ int, li *layerInput) error {
		cw := &countWriter{}
		w, err := stream.NewWriter(cw, li.meta())
		if err != nil {
			return err
		}
		for _, e := range li.tr.Events {
			if err := w.Write(e); err != nil {
				return err
			}
		}
		err = w.Close()
		encoded += cw.n
		return err
	})
	if err != nil {
		return fmt.Errorf("stream.Writer: %w", err)
	}
	decode, _, err := r.perInput(func(_ int, li *layerInput) error {
		f, err := stream.OpenFile(li.path)
		if err != nil {
			return err
		}
		for err == nil {
			_, err = f.NextChunk()
		}
		return stream.CloseMerge(f, eofNil(err))
	})
	if err != nil {
		return fmt.Errorf("stream.OpenFile: %w", err)
	}
	decodeMmap, _, err := r.perInput(func(_ int, li *layerInput) error {
		f, err := stream.OpenFileParallel(li.path, stream.ParallelOptions{Workers: 1, Mmap: true})
		if err != nil {
			return err
		}
		for err == nil {
			_, err = f.NextChunkSoA()
		}
		return stream.CloseMerge(f, eofNil(err))
	})
	if err != nil {
		return fmt.Errorf("stream.OpenFileParallel: %w", err)
	}
	r.add("stream.encode_ns_per_event", nsPerEvent(encode))
	r.add("stream.bytes_per_event", perEvent(float64(encoded), events))
	r.add("stream.decode_ns_per_event", nsPerEvent(decode))
	r.add("stream.decode_mmap_ns_per_event", nsPerEvent(decodeMmap))

	// pipeline: the op's fan-out with drain-only consumers, fed from memory
	// in the shape the op's producer reads.
	broadcast, _, err := r.perInput(func(_ int, li *layerInput) error {
		consumers := make([]pipeline.Consumer, len(r.inst.consumers))
		for i, k := range r.inst.consumers {
			consumers[i] = k.consumer()
		}
		return pipeline.Config{}.Run(&chunkSource{events: li.tr.Events}, consumers...)
	})
	if err != nil {
		return fmt.Errorf("pipeline.Run: %w", err)
	}
	r.add("pipeline.broadcast_ns_per_event", nsPerEvent(broadcast))

	// tse: the paper-configuration coverage consumer alone.
	var covered, discards, consumptions uint64
	cover, tseAlloc, err := r.perInput(func(_ int, li *layerInput) error {
		c := analysis.NewTSEConsumer(li.tseConfig())
		err := c.Run(r.modelSource(li))
		covered += c.Result.Covered
		discards += c.Result.Discards
		consumptions += c.Result.Consumptions
		return err
	})
	if err != nil {
		return fmt.Errorf("tse coverage: %w", err)
	}
	r.add("tse.coverage_ns_per_event", nsPerEvent(cover))
	r.add("tse.alloc_bytes_per_event", perEvent(float64(tseAlloc), events))
	for _, n := range []int{16, 64} {
		const calls = 5
		cfg := config.DefaultSystem().DefaultTSE()
		cfg.Nodes = n
		u, err := measure(func() error {
			for i := 0; i < calls; i++ {
				tse.NewSystem(cfg)
			}
			return nil
		})
		if err != nil {
			return err
		}
		name := "tse.new_system_us"
		if n != 16 {
			name += fmt.Sprintf(".n%d", n)
		}
		r.add(name, float64(u.cpu.Nanoseconds())/1e3/calls)
	}

	// timing: the baseline and TSE timing models alone.
	bases := make([]timing.Result, len(r.inputs))
	speedups := make([]float64, len(r.inputs))
	base, _, err := r.perInput(func(i int, li *layerInput) error {
		var err error
		bases[i], err = timing.SimulateSource(stream.TraceSource(li.tr), li.timingParams())
		return err
	})
	if err != nil {
		return fmt.Errorf("timing base: %w", err)
	}
	withTSE, _, err := r.perInput(func(i int, li *layerInput) error {
		p := li.timingParams()
		cfg := li.tseConfig()
		p.TSE = &cfg
		res, err := timing.SimulateSource(stream.TraceSource(li.tr), p)
		speedups[i] = timing.Speedup(bases[i], res)
		return err
	})
	if err != nil {
		return fmt.Errorf("timing tse: %w", err)
	}
	r.add("timing.base_ns_per_event", nsPerEvent(base))
	r.add("timing.tse_ns_per_event", nsPerEvent(withTSE))

	// prefetch: each baseline prefetcher through analysis.EvaluateModel.
	for _, p := range []struct {
		name  string
		model func(nodes int) prefetch.Model
	}{
		{"prefetch.stride_ns_per_event", func(n int) prefetch.Model {
			c := prefetch.DefaultStrideConfig()
			c.Nodes = n
			return prefetch.NewStride(c)
		}},
		{"prefetch.ghb_gdc_ns_per_event", func(n int) prefetch.Model {
			c := prefetch.DefaultGHBConfig(prefetch.GDC)
			c.Nodes = n
			return prefetch.NewGHB(c)
		}},
		{"prefetch.ghb_gac_ns_per_event", func(n int) prefetch.Model {
			c := prefetch.DefaultGHBConfig(prefetch.GAC)
			c.Nodes = n
			return prefetch.NewGHB(c)
		}},
	} {
		cost, _, err := r.perInput(func(_ int, li *layerInput) error {
			analysis.EvaluateModel(p.model(li.cfg.Nodes), li.tr)
			return nil
		})
		if err != nil {
			return err
		}
		r.add(p.name, nsPerEvent(cost))
	}

	// analysis: each lookahead-sweep cell run alone.
	var cells int
	sweep, _, err := r.perInput(func(_ int, li *layerInput) error {
		_, cfgs := li.lookaheadCells()
		cells = len(cfgs)
		for _, cfg := range cfgs {
			if err := analysis.NewTSEConsumer(cfg).Run(r.modelSource(li)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sweep cells: %w", err)
	}
	r.add("analysis.sweep_cell_ns_per_event", nsPerEvent(sweep)/float64(cells))

	// experiments: workspace generation, then each experiment alone.
	expCPU, err := r.experiments()
	if err != nil {
		return err
	}

	// Shares of the op and the layer sum.
	tseOp := r.weighted(cover, func(li *layerInput) int { return li.tse }) +
		r.weighted(sweep, func(li *layerInput) int { return li.cells })
	timingOp := r.weighted(base, func(li *layerInput) int { return li.timing }) +
		r.weighted(withTSE, func(li *layerInput) int { return li.timing })
	decodeOp := r.weighted(decode, func(li *layerInput) int { return li.decode })
	broadcastOp := r.weighted(broadcast, func(li *layerInput) int { return li.broadcast })
	r.add("stream.decode_share_pct", sharePct(decodeOp, opCPU))
	r.add("pipeline.broadcast_share_pct", sharePct(broadcastOp, opCPU))
	r.add("tse.share_pct", sharePct(tseOp, opCPU))
	r.add("timing.share_pct", sharePct(timingOp, opCPU))
	layerSum := decodeOp + broadcastOp + tseOp + timingOp
	if r.inst.figs != nil {
		layerSum = expCPU
	}
	r.add("tsm.layer_sum_ns_per_event", perEvent(layerSum, r.inst.events))
	r.add("tsm.layer_residual_pct", sharePct(opCPU-layerSum, opCPU))

	r.sim = map[string]float64{
		"tse.coverage_frac": perEvent(float64(covered), consumptions),
		"tse.discard_frac":  perEvent(float64(discards), consumptions),
		"tse.consumptions":  float64(consumptions),
		"timing.speedup":    sum(speedups) / float64(len(speedups)),
	}
	return nil
}

// experiments times workspace generation and then each paper-figs
// experiment alone, serially, on the prefetched workspace, and returns their
// total CPU in ns. File workloads run them over a workspace of their own
// workload at their own scale.
func (r *layerRun) experiments() (float64, error) {
	opts := experiments.Options{Nodes: r.inputs[0].cfg.Nodes, Seed: r.inputs[0].cfg.Seed, Scale: r.inputs[0].cfg.Scale, Workloads: []string{r.inputs[0].spec.Name}}
	if r.inst.figs != nil {
		opts = r.inst.figs.opts
	}
	w := experiments.NewWorkspace(opts)
	u, err := measure(w.Prefetch)
	if err != nil {
		return 0, fmt.Errorf("experiments.Workspace.Prefetch: %w", err)
	}
	total := float64(u.cpu.Nanoseconds())
	r.add("experiments.generate_s", u.cpu.Seconds())
	for _, id := range figsExperiments {
		exp, _ := experiments.ByID(id)
		u, err := measure(func() error { _, err := exp.Run(w); return err })
		if err != nil {
			return 0, fmt.Errorf("experiments %s: %w", id, err)
		}
		total += float64(u.cpu.Nanoseconds())
		r.add("experiments."+id+"_s", u.cpu.Seconds())
	}
	return total, nil
}

// stallFractions reads the pipeline's public counters after an
// instrumented op: the producer's backpressure stall as a fraction of
// pipeline wall time, and the consumers' chunk-wait stall as a fraction of
// their combined time (wall time times the mean fan-out, weighted by
// events).
func stallFractions(s tsm.MetricsSnapshot) (producer, consumer float64) {
	c := s.Counters
	wall := float64(c["pipeline.wall_ns"])
	if wall == 0 {
		return 0, 0
	}
	var stall, delivered float64
	for name, v := range c {
		if !strings.HasPrefix(name, "pipeline.consumer.") {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".stall_ns"):
			stall += float64(v)
		case strings.HasSuffix(name, ".events"):
			delivered += float64(v)
		}
	}
	producer = float64(c["pipeline.producer.stall_ns"]) / wall
	if fanout := perEvent(delivered, c["pipeline.events_decoded"]); fanout > 0 {
		consumer = stall / (wall * fanout)
	}
	return producer, consumer
}

// tracedRun measures rounds until d has passed and at least minRounds have
// run, and returns the median of every per-layer metric.
func tracedRun(r *layerRun, d time.Duration, minRounds int) (map[string]float64, error) {
	start := time.Now()
	for rounds := 0; rounds < minRounds || time.Since(start) < d; rounds++ {
		if err := r.round(); err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	for name, xs := range r.samples {
		out[name] = median(xs)
	}
	for name, v := range r.sim {
		out[name] = v
	}
	return out, nil
}
