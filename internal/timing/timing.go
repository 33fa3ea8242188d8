// Package timing implements the cycle-level DSM timing model used to
// reproduce Figure 14 (execution-time breakdown and TSE speedup) and the
// cycle-accurate columns of Table 3 (full vs. partial coverage).
//
// The model replays a workload's globally ordered consumption/write trace.
// Each node alternates between non-coherent work (busy cycles plus other
// stalls, sized from the workload's Figure 14 baseline breakdown) and
// coherent read misses, which it issues in bursts bounded by the workload's
// consumption MLP (Table 3). A coherent read costs the 3-hop miss latency of
// Table 1; with TSE enabled, a consumption that hits the SVB costs only an
// L2-like probe if the streamed block has already arrived (full coverage) or
// the remaining in-flight time if it is still on its way (partial coverage).
// Streamed-block arrival times follow Section 5.6: the latency to retrieve a
// stream and initiate streaming is approximately the same as the latency to
// fill the consumption miss that triggered the lookup.
package timing

import (
	"fmt"
	"io"
	"math"

	"tsm/internal/config"
	"tsm/internal/mem"
	"tsm/internal/obs"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

// Breakdown is the execution-time breakdown of Figure 14, in cycles summed
// across nodes.
type Breakdown struct {
	BusyCycles          uint64
	OtherStallCycles    uint64
	CoherentStallCycles uint64
}

// Total returns the total cycles of the breakdown.
func (b Breakdown) Total() uint64 {
	return b.BusyCycles + b.OtherStallCycles + b.CoherentStallCycles
}

// Fractions returns the normalised breakdown (busy, other, coherent).
func (b Breakdown) Fractions() (busy, other, coherent float64) {
	t := float64(b.Total())
	if t == 0 {
		return 0, 0, 0
	}
	return float64(b.BusyCycles) / t, float64(b.OtherStallCycles) / t, float64(b.CoherentStallCycles) / t
}

// Result summarises one timing simulation.
type Result struct {
	// Breakdown is the execution-time breakdown summed over nodes.
	Breakdown Breakdown
	// Consumptions is the number of consumptions simulated.
	Consumptions uint64
	// FullCovered counts consumptions whose streamed block had already
	// arrived (cost an SVB probe only).
	FullCovered uint64
	// PartialCovered counts consumptions whose streamed block was still in
	// flight (part of the miss latency was hidden).
	PartialCovered uint64
	// PartialLatencyHidden is the average fraction of the miss latency
	// hidden for partially covered consumptions.
	PartialLatencyHidden float64
	// MeasuredMLP is the average burst size actually simulated.
	MeasuredMLP float64
	// SegmentCycles records total cycles per measurement segment (same
	// segmentation for base and TSE runs), enabling paired speedup
	// confidence intervals in the SMARTS style.
	SegmentCycles []uint64
	// TSE is the end-of-run result of the TSE model the simulation drove
	// (zero for a baseline run): trace coverage, discards, stream lengths
	// and traffic. TSE state does not depend on timing, so it equals the
	// result of a tse.System run alone over the same events.
	TSE tse.Result
}

// TotalCycles returns the total execution cycles (summed over nodes), the
// quantity whose ratio between base and TSE runs is the Figure 14 speedup.
func (r Result) TotalCycles() uint64 { return r.Breakdown.Total() }

// FullCoverage returns FullCovered / Consumptions.
func (r Result) FullCoverage() float64 {
	if r.Consumptions == 0 {
		return 0
	}
	return float64(r.FullCovered) / float64(r.Consumptions)
}

// PartialCoverage returns PartialCovered / Consumptions.
func (r Result) PartialCoverage() float64 {
	if r.Consumptions == 0 {
		return 0
	}
	return float64(r.PartialCovered) / float64(r.Consumptions)
}

// Params configures one timing simulation.
type Params struct {
	// System supplies latencies (Table 1).
	System config.SystemConfig
	// Profile supplies the workload's baseline breakdown, MLP and
	// lookahead (Figure 14 / Table 3).
	Profile workload.TimingProfile
	// Nodes is the number of nodes in the trace.
	Nodes int
	// TSE, when non-nil, enables the temporal streaming engine with the
	// given configuration; nil simulates the baseline system.
	TSE *tse.Config
	// SegmentConsumptions sets how many consumptions form one measurement
	// segment for confidence intervals (0 selects a default of 2000).
	SegmentConsumptions int
	// Observer, when non-nil, receives every consumption's resolved latency
	// in cycles, immediately after it is determined and before it is issued
	// into the MLP burst. It is a pure tap — the simulation's arithmetic and
	// results are unaffected — used by the sampling Consumer to build
	// per-epoch latency histograms. Nil (the default) disables it.
	Observer func(latencyCycles uint64)
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if err := p.System.Validate(); err != nil {
		return err
	}
	if err := p.Profile.Validate(); err != nil {
		return err
	}
	if p.Nodes <= 0 {
		return fmt.Errorf("timing: nodes must be positive")
	}
	if p.TSE != nil {
		if err := p.TSE.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// streamSpacing is the spacing in cycles between successive streamed data
// blocks of one burst.
const streamSpacing = 30

// nodeState is the per-node simulation state.
type nodeState struct {
	clock uint64
	// burst accumulates the latencies of the consumptions issued in the
	// current MLP burst; the burst stall is their maximum.
	burstLatencies []uint64
	burstBudget    int
	// mlpAcc carries the fractional part of the target burst size so that
	// the average burst size matches a non-integer MLP.
	mlpAcc float64
	// svb is the node's streamed value buffer (nil without TSE).
	svb *tse.SVB
	// arrivals maps the streamed blocks the node's SVB holds to the cycle
	// at which their data will have arrived. A block leaves it when it is
	// hit or discarded, so it never outgrows the SVB.
	arrivals map[mem.BlockAddr]uint64
	// pendingFetches collects blocks streamed during the current
	// consumption call, before their arrival times are assigned.
	pendingFetches []mem.BlockAddr
	breakdown      Breakdown
}

// simulator is the state of one timing simulation, fed one event at a time.
type simulator struct {
	p       Params
	nodes   []*nodeState
	sys     *tse.System
	segSize int
	mlp     float64
	// lCoh is the coherent 3-hop miss latency, lSVB an SVB hit, and
	// streamStart the latency until a newly located stream delivers data.
	lCoh, lSVB, streamStart   uint64
	busyPerCons, otherPerCons uint64

	res                       Result
	partialHiddenSum          float64
	bursts, burstConsumptions uint64
	segCount                  int
	prevTotal                 uint64
}

// Simulate runs the timing model over a trace and returns the result.
func Simulate(tr *trace.Trace, p Params) (Result, error) {
	return SimulateSource(stream.TraceSource(tr), p)
}

// SimulateSource runs the timing model over a pull-based event stream. The
// events are consumed one at a time in stream order — the trace is never
// materialized — so a trace file of any size drives the cycle-level model in
// bounded memory, and the result is bit-identical to Simulate over the
// equivalent in-memory trace. A source error other than io.EOF aborts the
// simulation and is returned.
func SimulateSource(src stream.Source, p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	return newSimulator(p).run(src)
}

// run drives the simulation over src to its end and returns the result.
func (sim *simulator) run(src stream.Source) (Result, error) {
	for {
		e, err := src.Next()
		if err == io.EOF {
			return sim.finish(), nil
		}
		if err != nil {
			return Result{}, err
		}
		if err := sim.event(e); err != nil {
			return Result{}, err
		}
	}
}

// newSimulator sets up a simulation of validated parameters.
func newSimulator(p Params) *simulator {
	sim := &simulator{p: p, segSize: p.SegmentConsumptions}
	if sim.segSize <= 0 {
		sim.segSize = 2000
	}

	sim.lCoh = p.System.ThreeHopLatencyCycles()
	sim.lSVB = p.System.SVBHitLatencyCycles()
	// Stream retrieval latency: the stream lookup+forwarding round trip is
	// approximately one more 3-hop latency after the triggering miss fills.
	sim.streamStart = 2 * sim.lCoh

	// Per-consumption non-coherent work, derived so that the baseline
	// breakdown matches the workload profile by construction: the baseline
	// coherent stall per consumption is lCoh/MLP.
	sim.mlp = p.Profile.MLP
	if sim.mlp < 1 {
		sim.mlp = 1
	}
	cohPerCons := float64(sim.lCoh) / sim.mlp
	nonCohFrac := p.Profile.BusyFraction + p.Profile.OtherStallFraction
	gap := cohPerCons * nonCohFrac / p.Profile.CoherentStallFraction
	busyShare := 0.0
	if nonCohFrac > 0 {
		busyShare = p.Profile.BusyFraction / nonCohFrac
	}
	sim.busyPerCons = uint64(gap*busyShare + 0.5)
	sim.otherPerCons = uint64(gap*(1-busyShare) + 0.5)

	sim.nodes = make([]*nodeState, p.Nodes)
	for i := range sim.nodes {
		n := &nodeState{arrivals: make(map[mem.BlockAddr]uint64)}
		n.burstBudget = sim.nextBurstSize(n)
		sim.nodes[i] = n
	}

	if p.TSE != nil {
		cfg := *p.TSE
		cfg.Nodes = p.Nodes
		sim.sys = tse.NewSystem(cfg)
		for i, n := range sim.nodes {
			eng := sim.sys.Engine(mem.NodeID(i))
			n.svb = eng.SVB()
			eng.SetFetchHandler(func(b mem.BlockAddr) {
				n.pendingFetches = append(n.pendingFetches, b)
			})
			eng.SetDiscardHandler(func(b mem.BlockAddr, _ tse.DiscardReason) {
				delete(n.arrivals, b)
			})
		}
	}
	return sim
}

// nextBurstSize yields burst sizes whose running average equals the
// (possibly fractional) MLP target.
func (sim *simulator) nextBurstSize(n *nodeState) int {
	n.mlpAcc += sim.mlp
	size := int(n.mlpAcc)
	if size < 1 {
		size = 1
	}
	n.mlpAcc -= float64(size)
	return size
}

func (sim *simulator) flushBurst(n *nodeState) {
	if len(n.burstLatencies) == 0 {
		return
	}
	var maxLat uint64
	for _, l := range n.burstLatencies {
		if l > maxLat {
			maxLat = l
		}
	}
	n.clock += maxLat
	n.breakdown.CoherentStallCycles += maxLat
	sim.bursts++
	sim.burstConsumptions += uint64(len(n.burstLatencies))
	n.burstLatencies = n.burstLatencies[:0]
	n.burstBudget = sim.nextBurstSize(n)
}

func (sim *simulator) totalBreakdown() uint64 {
	var t uint64
	for _, n := range sim.nodes {
		t += n.breakdown.Total()
	}
	return t
}

// event advances the simulation by one trace event. An event by a node
// outside the simulated system is an error: the model has no state for it.
func (sim *simulator) event(e trace.Event) error {
	if e.Node < 0 || int(e.Node) >= sim.p.Nodes {
		return fmt.Errorf("timing: %v by node %d outside the %d-node system", e.Kind, e.Node, sim.p.Nodes)
	}
	switch e.Kind {
	case trace.KindWrite:
		if sim.sys != nil {
			sim.sys.Write(e)
		}
	case trace.KindConsumption:
		sim.consume(sim.nodes[e.Node], e)
	}
	return nil
}

// consume simulates one consumption by node n.
func (sim *simulator) consume(n *nodeState, e trace.Event) {
	lCoh := sim.lCoh
	sim.res.Consumptions++

	// Non-coherent work preceding the consumption.
	n.clock += sim.busyPerCons + sim.otherPerCons
	n.breakdown.BusyCycles += sim.busyPerCons
	n.breakdown.OtherStallCycles += sim.otherPerCons

	// Determine the consumption's latency.
	latency := lCoh
	if sim.sys != nil {
		n.pendingFetches = n.pendingFetches[:0]
		covered := sim.sys.Consumption(e)
		if covered {
			arrival, ok := n.arrivals[e.Block]
			delete(n.arrivals, e.Block)
			if !ok || arrival <= n.clock {
				latency = sim.lSVB
				sim.res.FullCovered++
			} else {
				remaining := arrival - n.clock
				if remaining > lCoh {
					remaining = lCoh
				}
				latency = remaining + sim.lSVB
				if latency > lCoh {
					latency = lCoh
				}
				sim.res.PartialCovered++
				sim.partialHiddenSum += 1 - float64(remaining)/float64(lCoh)
			}
		}
		// Assign arrival times to blocks streamed during this call and
		// still held (a later fetch of the same call may have evicted one).
		for k, b := range n.pendingFetches {
			if !n.svb.Contains(b) {
				continue
			}
			if covered {
				// Steady-state advance: one retrieval round trip.
				n.arrivals[b] = n.clock + lCoh
			} else {
				// Newly located stream: lookup + forwarding, then
				// pipelined data delivery.
				n.arrivals[b] = n.clock + sim.streamStart + uint64(k)*streamSpacing
			}
		}
	}

	if sim.p.Observer != nil {
		sim.p.Observer(latency)
	}

	// Join the current MLP burst.
	n.burstLatencies = append(n.burstLatencies, latency)
	n.burstBudget--
	if n.burstBudget <= 0 {
		sim.flushBurst(n)
	}

	// Segment accounting for confidence intervals.
	sim.segCount++
	if sim.segCount >= sim.segSize {
		cur := sim.totalBreakdown()
		sim.res.SegmentCycles = append(sim.res.SegmentCycles, cur-sim.prevTotal)
		sim.prevTotal = cur
		sim.segCount = 0
	}
}

// finish drains the open bursts, flushes the TSE model and returns the
// result.
func (sim *simulator) finish() Result {
	for _, n := range sim.nodes {
		sim.flushBurst(n)
	}
	res := sim.res
	if sim.sys != nil {
		res.TSE = sim.sys.Finish()
	}
	for _, n := range sim.nodes {
		res.Breakdown.BusyCycles += n.breakdown.BusyCycles
		res.Breakdown.OtherStallCycles += n.breakdown.OtherStallCycles
		res.Breakdown.CoherentStallCycles += n.breakdown.CoherentStallCycles
	}
	if res.PartialCovered > 0 {
		res.PartialLatencyHidden = sim.partialHiddenSum / float64(res.PartialCovered)
	}
	if sim.bursts > 0 {
		res.MeasuredMLP = float64(sim.burstConsumptions) / float64(sim.bursts)
	}
	return res
}

// Consumer adapts SimulateSource to the single-decode fan-out engine in
// internal/pipeline (whose Consumer interface it satisfies structurally):
// Run drains its private tee of the stream through the timing model and
// stores the result.
//
// Consumer also satisfies pipeline.Sampler: with a series attached, Run taps
// every consumption latency through Params.Observer into a per-epoch
// obs.Histogram, and each chunk-boundary pump records the epoch's latency
// distribution (count, mean, interpolated p50/p90/p99) as one sample, then
// starts a fresh epoch. With TSE enabled the sample also carries the TSE
// model's live state (tse.LiveStats), so this one consumer reports both
// the coverage and the timing of a replay. The simulation's results are
// identical with and without the tap.
type Consumer struct {
	params Params
	// Result is the simulation result, valid after Run returns nil.
	Result Result
	series *obs.Series
	sim    *simulator     // live simulation while Run is in flight
	epoch  *obs.Histogram // latencies observed since the last sample
	cum    uint64         // consumptions observed so far
}

// NewConsumer wraps one timing simulation at the given parameters.
func NewConsumer(p Params) *Consumer { return &Consumer{params: p} }

// Run implements the pipeline consumer contract.
func (c *Consumer) Run(src stream.Source) error {
	p := c.params
	if c.series != nil {
		c.cum = 0
		c.epoch = &obs.Histogram{}
		p.Observer = func(latency uint64) {
			c.cum++
			c.epoch.Observe(latency)
		}
	}
	if err := p.Validate(); err != nil {
		return err
	}
	c.sim = newSimulator(p)
	res, err := c.sim.run(src)
	c.sim = nil
	c.Result = res
	return err
}

// AttachSeries implements pipeline.Sampler.
func (c *Consumer) AttachSeries(s *obs.Series) { c.series = s }

// SampleAt implements pipeline.Sampler: one epoch sample of the latency
// distribution since the previous sample, plus the TSE model's live state
// when TSE is enabled. Runs on the consumer's goroutine between events;
// outside Run it is a no-op.
func (c *Consumer) SampleAt(seq uint64, final bool) {
	if c.sim == nil || c.epoch == nil || !c.series.Ready(seq, final) {
		return
	}
	values := map[string]float64{"consumptions": float64(c.cum)}
	if c.sim.sys != nil {
		values = c.sim.sys.Probe().SeriesValues()
	}
	snap := c.epoch.Snapshot()
	values["latency_count"] = float64(snap.Count)
	values["latency_mean"] = snap.Mean()
	values["latency_p50"] = snap.P50
	values["latency_p90"] = snap.P90
	values["latency_p99"] = snap.P99
	c.series.Record(seq, values)
	c.epoch = &obs.Histogram{}
}

// Speedup returns base execution time divided by the comparison execution
// time.
func Speedup(base, other Result) float64 {
	if other.TotalCycles() == 0 {
		return 0
	}
	return float64(base.TotalCycles()) / float64(other.TotalCycles())
}

// SpeedupConfidence computes the mean speedup and its 95% confidence
// half-width from paired per-segment cycle counts of a base and a TSE run.
// Segments beyond the shorter run are ignored.
func SpeedupConfidence(base, other Result) (mean, ci float64) {
	n := len(base.SegmentCycles)
	if len(other.SegmentCycles) < n {
		n = len(other.SegmentCycles)
	}
	if n == 0 {
		return Speedup(base, other), 0
	}
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		if other.SegmentCycles[i] == 0 {
			continue
		}
		s := float64(base.SegmentCycles[i]) / float64(other.SegmentCycles[i])
		sum += s
		sumSq += s * s
	}
	mean = sum / float64(n)
	if n > 1 {
		variance := (sumSq - float64(n)*mean*mean) / float64(n-1)
		if variance > 0 {
			ci = 1.96 * math.Sqrt(variance) / math.Sqrt(float64(n))
		}
	}
	return mean, ci
}
