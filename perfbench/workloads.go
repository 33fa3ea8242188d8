package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"

	"tsm"
	"tsm/internal/analysis"
	"tsm/internal/config"
	"tsm/internal/experiments"
	"tsm/internal/stream"
	"tsm/internal/timing"
	"tsm/internal/trace"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

// sizes fixes a workload's input size; the seed comes from the command line.
type sizes struct {
	nodes  int
	scale  float64
	repeat float64
}

// workloadDef is one benchmark workload: why it is in the benchmark, and how
// to build its input and serial reference.
type workloadDef struct {
	name    string
	why     string
	sizes   sizes
	prepare func(seed int64, dir string, sz sizes) (*instance, error)
}

// instance is one prepared workload: its inputs on disk or in memory, and an
// op that runs the system once and checks the output against the reference
// computed serially during preparation.
type instance struct {
	// events is the number of input events one op processes.
	events uint64
	// inputs are the traces the op reads or generates.
	inputs []*input
	// op runs one op; it returns the op's error, or errMismatch when the
	// output differs from the reference.
	op func() error
	// observedOp is op with the public metrics instrumentation attached.
	observedOp func(m *tsm.Metrics) error
	// consumers lists how the op's pipeline consumers pull events, for the
	// drain-only broadcast layer. When every op's pipeline has one consumer,
	// as in paper-figs, the pipeline hands it the source directly and its
	// TSE models read events one at a time rather than column chunks.
	consumers []drainKind
	// runs says how often one op runs each layer over an input.
	runs func(in *input) layerRuns
	// figs is set for paper-figs, whose layers include whole experiments.
	figs *figsRun
	// want is the reference output, printed with the run's identity.
	want string
}

// input is one generated trace.
type input struct {
	spec   workload.Spec
	cfg    workload.Config // generation parameters
	path   string          // trace file; "" until written
	tr     *trace.Trace    // the events, decoded from path when there is one
	events int             // len(tr.Events), kept when tr is dropped
	sha256 string          // of the trace as the codec writes it
	bytes  int64           // encoded size
}

func (in *input) meta() stream.Meta {
	return stream.Meta{Workload: in.spec.Name, Nodes: in.cfg.Nodes, Scale: in.cfg.Scale, Seed: in.cfg.Seed, Repeat: in.cfg.Repeat}
}

// tseConfig is the paper's TSE configuration for the input, derived the way
// the tsm facade derives it for a trace file.
func (in *input) tseConfig() tse.Config {
	cfg := config.DefaultSystem().DefaultTSE()
	cfg.Nodes = in.cfg.Nodes
	cfg.Lookahead = in.spec.New(in.cfg).Timing().Lookahead
	return cfg
}

// timingParams are the baseline timing parameters for the input; set TSE to
// select the TSE run.
func (in *input) timingParams() timing.Params {
	sys := config.DefaultSystem()
	sys.Nodes = in.cfg.Nodes
	return timing.Params{System: sys, Profile: in.spec.New(in.cfg).Timing(), Nodes: in.cfg.Nodes}
}

// lookaheadCells are the configurations and labels of the "lookahead" sweep:
// the Figure 8 study, two compared streams with the hardware limits lifted.
func (in *input) lookaheadCells() ([]string, []tse.Config) {
	var labels []string
	var cfgs []tse.Config
	for _, la := range experiments.Fig8Lookaheads() {
		cfg := in.tseConfig()
		cfg.CMOBEntries = 0
		cfg.SVBEntries = 0
		cfg.StreamQueues = 64
		cfg.ComparedStreams = 2
		cfg.Lookahead = la
		labels = append(labels, fmt.Sprintf("LA=%d", la))
		cfgs = append(cfgs, cfg)
	}
	return labels, cfgs
}

var workloads = []workloadDef{
	{
		name:    "replay-db2",
		why:     "tsesim -i path: one decode of a 16-node db2 trace feeds coverage TSE and two timing models; short commercial streams, TSE model runs twice per event",
		sizes:   sizes{nodes: 16, scale: 1, repeat: 2},
		prepare: prepareReplay,
	},
	{
		name:    "sweep-em3d",
		why:     "one-decode lookahead sweep: six unbounded-CMOB TSE cells share one decode of a 16-node em3d trace; long scientific streams, no timing model",
		sizes:   sizes{nodes: 16, scale: 1, repeat: 1},
		prepare: prepareSweep,
	},
	{
		name:    "paper-figs",
		why:     "tsesim -experiment path: fresh workspace, fig12+fig14+sensitivity over 4 workloads at scale 0.05; in-memory traces, many short-lived Systems, prefetchers",
		sizes:   sizes{nodes: 16, scale: 0.05, repeat: 1},
		prepare: prepareFigs,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func newInput(name string, seed int64, sz sizes) (*input, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return &input{spec: spec, cfg: workload.Config{Nodes: sz.nodes, Seed: seed, Scale: sz.scale, Repeat: sz.repeat, Geometry: config.DefaultSystem().Geometry}}, nil
}

func tracePath(dir string, in *input) string {
	return filepath.Join(dir, fmt.Sprintf("%s-n%d.tsm", in.spec.Name, in.cfg.Nodes))
}

// writeTraceFile generates the input's trace through the facade and streams
// it into a trace file, as tracegen does.
func writeTraceFile(in *input, dir string) (err error) {
	in.path = tracePath(dir, in)
	f, err := os.Create(in.path)
	if err != nil {
		return err
	}
	defer func() { err = stream.CloseMerge(f, err) }()
	w, err := stream.NewWriter(f, in.meta())
	if err != nil {
		return err
	}
	opts := tsm.Options{Nodes: in.cfg.Nodes, Scale: in.cfg.Scale, Repeat: in.cfg.Repeat, Seed: in.cfg.Seed}
	if _, _, err := tsm.StreamTrace(in.spec.Name, opts, w); err != nil {
		return err
	}
	return w.Close()
}

// loadTraceFile hashes the written trace file and decodes it into memory.
func loadTraceFile(in *input) error {
	f, err := os.Open(in.path)
	if err != nil {
		return err
	}
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err = stream.CloseMerge(f, err); err != nil {
		return err
	}
	in.sha256, in.bytes = hex.EncodeToString(h.Sum(nil)), n
	in.tr, _, err = stream.LoadFile(in.path)
	if err == nil {
		in.events = in.tr.Len()
	}
	return err
}

// hashEncoding sets the input's identity for an in-memory trace: the SHA-256
// and size of the trace as the codec would write it to a file.
func hashEncoding(in *input) error {
	h := sha256.New()
	cw := &countWriter{w: h}
	w, err := stream.NewWriter(cw, in.meta())
	if err != nil {
		return err
	}
	if _, err := stream.Copy(w, stream.TraceSource(in.tr)); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	in.sha256, in.bytes = hex.EncodeToString(h.Sum(nil)), cw.n
	return nil
}

// countWriter counts the bytes written through it; with a nil w it discards
// them.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	if c.w == nil {
		return len(p), nil
	}
	return c.w.Write(p)
}

// fileInput generates one workload's trace file and decodes it back into
// memory: the decoded events are the reference's input.
func fileInput(name string, seed int64, dir string, sz sizes) (*input, error) {
	in, err := newInput(name, seed, sz)
	if err != nil {
		return nil, err
	}
	if err := writeTraceFile(in, dir); err != nil {
		return nil, fmt.Errorf("writing %s trace: %w", name, err)
	}
	if err := loadTraceFile(in); err != nil {
		return nil, fmt.Errorf("loading %s trace: %w", name, err)
	}
	return in, nil
}

func mismatch(got, want any) error {
	return fmt.Errorf("%w: got %+v, want %+v", errMismatch, got, want)
}

// replayReference is the expected Report of tsm.EvaluateTSEFile, computed
// serially from the decoded events: the coverage TSE and both timing models
// run one after another, with no pipeline.
func replayReference(in *input) (tsm.Report, error) {
	cfg := in.tseConfig()
	cov := analysis.NewTSEConsumer(cfg)
	if err := cov.Run(stream.TraceSource(in.tr)); err != nil {
		return tsm.Report{}, err
	}
	params := in.timingParams()
	base, err := timing.SimulateSource(stream.TraceSource(in.tr), params)
	if err != nil {
		return tsm.Report{}, err
	}
	params.TSE = &cfg
	withTSE, err := timing.SimulateSource(stream.TraceSource(in.tr), params)
	if err != nil {
		return tsm.Report{}, err
	}
	_, ci := timing.SpeedupConfidence(base, withTSE)
	return tsm.Report{
		Model:        cov.Result.Name,
		Consumptions: cov.Result.Consumptions,
		Coverage:     cov.Result.Coverage(),
		Discards:     cov.Result.DiscardRate(),
		Speedup:      timing.Speedup(base, withTSE),
		SpeedupCI:    ci,
	}, nil
}

func prepareReplay(seed int64, dir string, sz sizes) (*instance, error) {
	in, err := fileInput("db2", seed, dir, sz)
	if err != nil {
		return nil, err
	}
	want, err := replayReference(in)
	if err != nil {
		return nil, fmt.Errorf("replay reference: %w", err)
	}
	return replayInstance(in, want), nil
}

// replayInstance builds the replay op over a written input, checked against
// want.
func replayInstance(in *input, want tsm.Report) *instance {
	check := func(got tsm.Report, err error) error {
		if err != nil {
			return err
		}
		if got != want {
			return mismatch(got, want)
		}
		return nil
	}
	return &instance{
		events: uint64(in.tr.Len()),
		inputs: []*input{in},
		op:     func() error { return check(tsm.EvaluateTSEFile(in.path)) },
		observedOp: func(m *tsm.Metrics) error {
			return check(tsm.EvaluateTSEFileObserved(in.path, tsm.Instrumentation{Metrics: m}))
		},
		consumers: []drainKind{drainColumns, drainEvents, drainEvents},
		runs:      func(*input) layerRuns { return layerRuns{tse: 1, timing: 1, broadcast: 1, decode: 1} },
		want:      want.String(),
	}
}

// sweepReference is the expected output of the lookahead sweep: each cell's
// TSE model run alone over the decoded events.
func sweepReference(in *input) ([]tsm.SweepCell, error) {
	labels, cfgs := in.lookaheadCells()
	cells := make([]tsm.SweepCell, len(cfgs))
	for i, cfg := range cfgs {
		c := analysis.NewTSEConsumer(cfg)
		if err := c.Run(stream.TraceSource(in.tr)); err != nil {
			return nil, err
		}
		cells[i] = tsm.SweepCell{Label: labels[i], Report: tsm.Report{
			Model: c.Result.Name, Consumptions: c.Result.Consumptions,
			Coverage: c.Result.Coverage(), Discards: c.Result.DiscardRate(),
		}}
	}
	return cells, nil
}

func prepareSweep(seed int64, dir string, sz sizes) (*instance, error) {
	in, err := fileInput("em3d", seed, dir, sz)
	if err != nil {
		return nil, err
	}
	want, err := sweepReference(in)
	if err != nil {
		return nil, fmt.Errorf("sweep reference: %w", err)
	}
	return sweepInstance(in, want), nil
}

func sweepInstance(in *input, want []tsm.SweepCell) *instance {
	check := func(got []tsm.SweepCell, err error) error {
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return mismatch(got, want)
		}
		return nil
	}
	kinds := make([]drainKind, len(want))
	for i := range kinds {
		kinds[i] = drainColumns
	}
	var text string
	for _, c := range want {
		text += c.String() + "\n"
	}
	return &instance{
		events: uint64(in.tr.Len()),
		inputs: []*input{in},
		op:     func() error { return check(tsm.EvaluateTSESweepFile(in.path, "lookahead")) },
		observedOp: func(m *tsm.Metrics) error {
			return check(tsm.EvaluateTSESweepFileObserved(in.path, "lookahead", tsm.Instrumentation{Metrics: m}))
		},
		consumers: kinds,
		runs:      func(*input) layerRuns { return layerRuns{cells: 1, broadcast: 1, decode: 1} },
		want:      text,
	}
}

// figsWorkloads and figsExperiments define paper-figs; figsNodeCounts are
// the machine sizes the sensitivity experiment regenerates every trace at.
var (
	figsWorkloads   = []string{"db2", "em3d", "memkv", "pagerank"}
	figsExperiments = []string{"fig12", "fig14", "sensitivity"}
	figsNodeCounts  = []int{4, 16, 32, 64}
)

// figsRun is what the paper-figs layers need beyond the inputs.
type figsRun struct {
	opts experiments.Options
	exps []experiments.Experiment
}

func (f *figsRun) run(observe *tsm.Metrics) ([]experiments.Table, error) {
	w := experiments.NewWorkspace(f.opts)
	if observe != nil {
		w.Observe(observe, nil)
	}
	return experiments.RunAll(w, f.exps)
}

func prepareFigs(seed int64, dir string, sz sizes) (*instance, error) {
	f := &figsRun{opts: experiments.Options{Nodes: sz.nodes, Scale: sz.scale, Seed: seed, Workloads: figsWorkloads}}
	for _, id := range figsExperiments {
		exp, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		f.exps = append(f.exps, exp)
	}
	// The reference runs each experiment on its own, serially, over a
	// workspace of its own.
	ref := experiments.NewWorkspace(f.opts)
	var want []experiments.Table
	var text string
	for _, exp := range f.exps {
		tbl, err := exp.Run(ref)
		if err != nil {
			return nil, fmt.Errorf("paper-figs reference %s: %w", exp.ID, err)
		}
		want = append(want, tbl)
		text += tbl.String()
	}
	// An op classifies every workload at the workspace's node count, and
	// again at each node count of the sensitivity experiment, which include
	// the workspace's own.
	var inputs []*input
	var events uint64
	for _, nodes := range figsNodeCounts {
		ws := ref
		if nodes != sz.nodes {
			ws = experiments.NewWorkspace(experiments.Options{Nodes: nodes, Scale: sz.scale, Seed: seed, Workloads: figsWorkloads})
		}
		for _, name := range figsWorkloads {
			d, err := ws.Data(name)
			if err != nil {
				return nil, err
			}
			in := &input{spec: d.Spec, cfg: workload.Config{Nodes: nodes, Seed: seed, Scale: sz.scale, Repeat: 1, Geometry: config.DefaultSystem().Geometry}, tr: d.Trace, events: d.Trace.Len()}
			if err := hashEncoding(in); err != nil {
				return nil, err
			}
			inputs = append(inputs, in)
			events += uint64(d.Trace.Len())
			if nodes == sz.nodes {
				events += uint64(d.Trace.Len())
			}
		}
	}
	check := func(got []experiments.Table, err error) error {
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return mismatch(got, want)
		}
		return nil
	}
	return &instance{
		events:     events,
		inputs:     inputs,
		op:         func() error { return check(f.run(nil)) },
		observedOp: func(m *tsm.Metrics) error { return check(f.run(m)) },
		consumers:  []drainKind{drainEvents},
		runs: func(in *input) layerRuns {
			// sensitivity broadcasts every trace to one coverage TSE; fig12
			// runs the coverage TSE and fig14 the timing pair again over
			// the workspace's own traces.
			if in.cfg.Nodes == sz.nodes {
				return layerRuns{tse: 2, timing: 1, broadcast: 1}
			}
			return layerRuns{tse: 1, broadcast: 1}
		},
		figs: f,
		want: text,
	}, nil
}
