package tse

import (
	"fmt"
	"io"
	"math/bits"

	"tsm/internal/mem"
	"tsm/internal/stats"
	"tsm/internal/trace"
)

// Traffic accumulates the interconnect bytes attributable to TSE, by
// category, plus the baseline coherence traffic the same consumptions would
// generate. Section 5.4 / Figure 11 report the overhead categories relative
// to base traffic; correctly streamed blocks replace baseline coherent read
// misses one-for-one and are therefore not overhead.
type Traffic struct {
	// PointerUpdateBytes is CMOB-pointer update messages to directories.
	PointerUpdateBytes uint64
	// StreamRequestBytes is stream request messages from directories to
	// recent consumers.
	StreamRequestBytes uint64
	// StreamAddressBytes is the address streams forwarded between nodes
	// (the dominant overhead component per Section 5.4).
	StreamAddressBytes uint64
	// DiscardedDataBytes is data blocks streamed but never used.
	DiscardedDataBytes uint64
	// BaseBytes is the baseline traffic of the consumptions themselves
	// (request + data reply), used as the denominator of Figure 11's
	// ratio annotations.
	BaseBytes uint64
}

// requestMessageBytes approximates a coherence request/control message.
const requestMessageBytes = 8

// dataHeaderBytes approximates the header carried with a data reply.
const dataHeaderBytes = 8

// OverheadBytes returns the TSE overhead traffic.
func (t Traffic) OverheadBytes() uint64 {
	return t.PointerUpdateBytes + t.StreamRequestBytes + t.StreamAddressBytes + t.DiscardedDataBytes
}

// OverheadRatio returns overhead traffic as a fraction of base traffic.
func (t Traffic) OverheadRatio() float64 {
	if t.BaseBytes == 0 {
		return 0
	}
	return float64(t.OverheadBytes()) / float64(t.BaseBytes)
}

// Result summarises a trace-driven TSE run.
type Result struct {
	// Consumptions is the number of consumption events processed.
	Consumptions uint64
	// Covered is the number of consumptions eliminated (SVB hits).
	Covered uint64
	// BlocksFetched is the number of blocks streamed into SVBs.
	BlocksFetched uint64
	// Discards is the number of streamed blocks never used.
	Discards uint64
	// StreamsAllocated counts stream-queue allocations across all nodes.
	StreamsAllocated uint64
	// StreamLengths is the distribution of SVB hits per stream.
	StreamLengths *stats.Histogram
	// Traffic is the interconnect accounting.
	Traffic Traffic
	// CMOBPeakBytes is the largest per-node CMOB residency observed.
	CMOBPeakBytes int
}

// Coverage returns the fraction of consumptions eliminated.
func (r Result) Coverage() float64 {
	if r.Consumptions == 0 {
		return 0
	}
	return float64(r.Covered) / float64(r.Consumptions)
}

// DiscardRate returns discarded blocks as a fraction of consumptions (the
// paper's normalisation for Figures 7–9 and 12; it can exceed 1).
func (r Result) DiscardRate() float64 {
	if r.Consumptions == 0 {
		return 0
	}
	return float64(r.Discards) / float64(r.Consumptions)
}

// String summarises the result.
func (r Result) String() string {
	return fmt.Sprintf("consumptions=%d coverage=%.1f%% discards=%.1f%%",
		r.Consumptions, 100*r.Coverage(), 100*r.DiscardRate())
}

// System is the whole-machine trace-driven TSE model: one CMOB and one
// stream engine per node, plus the directory CMOB-pointer extension. It
// consumes the globally ordered consumption/write event stream produced by
// the functional coherence engine and accumulates the metrics the paper
// reports.
//
// System implements the model interface used by internal/analysis, so it can
// be evaluated side by side with the baseline prefetchers of Figure 12.
//
// A System records its own CMOB entries and pointer table as it goes. When
// many Systems replay the same stream, one shared Arrangement can record
// them instead (RunArranged); each System then keeps only its per-node
// append counts, which is all that tells its CMOB residency apart.
//
// The System keeps one holder index shared by all its SVBs: for each block
// some SVB holds, the bitmask of the holding nodes. A write invalidates the
// streamed copies that exist (Section 3.3) by visiting exactly those nodes,
// so its cost does not grow with the node count.
type System struct {
	cfg     Config
	cmobs   []CMOB
	engines []*Engine
	// ptrs is the System's own pointer table, and scratch the pointer
	// list of the consumption in flight; both unused under RunArranged.
	ptrs    pointerTable
	scratch []CMOBPointer
	holders holderIndex
	traffic Traffic
	peak    int
	// lostReads counts CMOB reads whose pointed entry was overwritten.
	lostReads uint64
}

// NewSystem builds a TSE system model. It panics on an invalid
// configuration.
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{cfg: cfg, holders: make(holderIndex), ptrs: pointerTable{width: cfg.ComparedStreams}}
	s.cmobs = make([]CMOB, cfg.Nodes)
	s.engines = make([]*Engine, cfg.Nodes)
	read := func(dst []mem.BlockAddr, node mem.NodeID, offset uint64, n int) ([]mem.BlockAddr, uint64) {
		c := &s.cmobs[node]
		if n > 0 && !c.resident(offset) {
			s.lostReads++
		}
		return c.ReadStream(dst, offset, n)
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.cmobs[i] = *NewCMOB(cfg.CMOBEntries)
		e := NewEngine(mem.NodeID(i), cfg, read)
		e.SetRefillHandler(func(source mem.NodeID, addresses int) {
			s.traffic.StreamRequestBytes += requestMessageBytes
			s.traffic.StreamAddressBytes += uint64(addresses) * CMOBEntryBytes
		})
		e.SVB().trackHolders(s.holders, mem.NodeID(i))
		s.engines[i] = e
	}
	return s
}

// Name identifies the model in comparison tables.
func (s *System) Name() string { return "TSE" }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Engine returns the stream engine of one node (for white-box tests).
func (s *System) Engine(node mem.NodeID) *Engine { return s.engines[node] }

// CMOB returns the CMOB of one node (for white-box tests).
func (s *System) CMOB(node mem.NodeID) *CMOB { return &s.cmobs[node] }

// Consumption processes a consumption event in global order and reports
// whether TSE eliminated it (the block was already in the node's SVB). It
// panics on a node outside [0, Nodes); RunColumns and RunSource return that
// as a *NodeError instead.
func (s *System) Consumption(e trace.Event) bool {
	covered, err := s.consumeOwn(e.Node, e.Block)
	if err != nil {
		panic(err)
	}
	return covered
}

// consumeOwn is a consumption against the System's own CMOB log and
// pointer table: look up the block's pointers and send the node's update
// to the directory, run the engine, then record the block in the node's
// CMOB. The engine reads CMOBs only below the append counts, so it never
// sees this consumption's own entry.
func (s *System) consumeOwn(node mem.NodeID, block mem.BlockAddr) (bool, error) {
	if err := checkNode(node, s.cfg.Nodes); err != nil {
		return false, err
	}
	c := &s.cmobs[node]
	s.scratch = s.ptrs.record(block, CMOBPointer{Node: node, Offset: c.next}, s.scratch[:0])
	covered := s.consume(node, block, s.scratch)
	c.log.append(c.next-1, block)
	return covered, nil
}

// consume is the consumption inner loop shared by every path. ptrs are
// the block's CMOB pointers before this consumption's update, newest
// first; the engine uses them only if the SVB misses, and only during the
// call. The node's CMOB append is counted here (useful streamed hits are
// recorded too, since they replace the misses they eliminated); the
// caller stores the entry.
func (s *System) consume(node mem.NodeID, block mem.BlockAddr, ptrs []CMOBPointer) bool {
	covered := s.engines[node].Consumption(block, ptrs)

	c := &s.cmobs[node]
	c.next++
	s.traffic.PointerUpdateBytes += CMOBPointerBytes
	if sb := c.StorageBytes(); sb > s.peak {
		s.peak = sb
	}

	// Baseline traffic for this consumption (request + data reply). With
	// TSE a covered consumption's data arrived via streaming instead, but
	// it replaces the baseline transfer one-for-one, so the base bytes are
	// charged either way.
	s.traffic.BaseBytes += requestMessageBytes + uint64(s.cfg.Geometry.BlockSize) + dataHeaderBytes
	return covered
}

// Write processes a write event: streamed copies of the block anywhere in
// the system are invalidated.
func (s *System) Write(e trace.Event) { s.writeBlock(e.Block) }

// writeBlock is the write inner loop, shared by the per-event path and
// RunColumns. It visits only the nodes whose SVB holds the block, in
// ascending order; Write on any other engine would be a no-op.
func (s *System) writeBlock(block mem.BlockAddr) {
	for m := s.holders[block]; m != 0; m &= m - 1 {
		s.engines[bits.TrailingZeros64(m)].Write(block)
	}
}

// RunColumns processes one chunk of events held as parallel columns (the
// struct-of-arrays regions decoded by internal/stream), in column order.
// This is the columnar form of RunSource's inner loop: the kind classify
// sweeps a dense same-typed array and each event touches only the columns
// its kind actually uses — consumptions read node+block, writes read block,
// read-miss annotations are skipped without assembling anything. Results
// are bit-identical to feeding the same events through Consumption/Write
// one at a time. A consumption by a node outside [0, Nodes) stops the chunk
// there with a *NodeError.
func (s *System) RunColumns(kinds []trace.EventKind, nodes []mem.NodeID, blocks []mem.BlockAddr) error {
	for i, k := range kinds {
		switch k {
		case trace.KindConsumption:
			if _, err := s.consumeOwn(nodes[i], blocks[i]); err != nil {
				return err
			}
		case trace.KindWrite:
			s.writeBlock(blocks[i])
		}
	}
	return nil
}

// Finish flushes all per-node state (counting unconsumed streamed blocks as
// discards) and returns the aggregated result. The System must not be used
// after Finish.
func (s *System) Finish() Result {
	res := Result{StreamLengths: stats.NewHistogram()}
	for _, eng := range s.engines {
		eng.Finish()
	}
	for _, eng := range s.engines {
		es := eng.Stats()
		res.Consumptions += es.Consumptions
		res.Covered += es.Covered
		res.BlocksFetched += es.BlocksFetched
		res.StreamsAllocated += es.StreamsAllocated
		res.Discards += eng.SVB().Stats().Discards
		for _, b := range eng.StreamLengths().Buckets() {
			res.StreamLengths.AddN(b, eng.StreamLengths().Count(b))
		}
	}
	res.Traffic = s.traffic
	// Every discarded block cost one streamed data transfer.
	res.Traffic.DiscardedDataBytes = res.Discards * uint64(s.cfg.Geometry.BlockSize+dataHeaderBytes+requestMessageBytes)
	res.CMOBPeakBytes = s.peak
	return res
}

// LiveStats is a mid-run snapshot of the whole-machine TSE state, cheap
// enough to take at every sampling epoch: pure aggregation over per-node
// counters, no flushing, no mutation. Unlike Finish it leaves the System
// fully usable, and unlike Result it reports the RESIDENT state too (blocks
// currently sitting in SVBs, CMOB storage in use) — the curves of the
// paper's occupancy figures rather than end-of-run totals.
type LiveStats struct {
	// Consumptions and Covered are the cumulative totals so far; at end of
	// stream they equal the final Result's (Finish only adds unused resident
	// blocks to Discards), so a final-epoch Coverage matches the report
	// exactly.
	Consumptions uint64
	Covered      uint64
	// BlocksFetched is blocks streamed into SVBs so far.
	BlocksFetched uint64
	// Discards is streamed blocks already discarded (resident blocks that
	// would become end-of-run discards are not counted until they actually
	// are).
	Discards uint64
	// Evicted and Invalidated split Discards by reason: replaced under SVB
	// capacity pressure, or dropped by a write to the block. The third
	// reason, DiscardUnused, only arises when Finish flushes the SVBs, so
	// it is known from the Result alone.
	Evicted, Invalidated uint64
	// StreamsAllocated is cumulative stream-queue allocations.
	StreamsAllocated uint64
	// Refills is cumulative stream-queue refill requests: a FIFO ran half
	// empty and asked its source CMOB for more addresses.
	Refills uint64
	// LostReads is cumulative CMOB reads (for a new stream or a refill)
	// whose pointed entry had already been overwritten: the stream was
	// recorded, but a CMOB too small to hold it lost it (Figure 10).
	LostReads uint64
	// SVBResident is the blocks currently held across all SVBs.
	SVBResident int
	// CMOBBytes is the current CMOB storage in use across all nodes.
	CMOBBytes int
}

// Coverage returns the fraction of consumptions eliminated so far.
func (ls LiveStats) Coverage() float64 {
	if ls.Consumptions == 0 {
		return 0
	}
	return float64(ls.Covered) / float64(ls.Consumptions)
}

// SeriesValues returns the snapshot as the named values of one time-series
// sample.
func (ls LiveStats) SeriesValues() map[string]float64 {
	return map[string]float64{
		"consumptions":         float64(ls.Consumptions),
		"covered":              float64(ls.Covered),
		"coverage":             ls.Coverage(),
		"fetched":              float64(ls.BlocksFetched),
		"discards":             float64(ls.Discards),
		"discards_evicted":     float64(ls.Evicted),
		"discards_invalidated": float64(ls.Invalidated),
		"streams":              float64(ls.StreamsAllocated),
		"refills":              float64(ls.Refills),
		"cmob_reads_lost":      float64(ls.LostReads),
		"svb_resident":         float64(ls.SVBResident),
		"cmob_bytes":           float64(ls.CMOBBytes),
	}
}

// Probe aggregates the current per-node state without flushing anything. It
// must run between events (same goroutine as Consumption/Write), which is
// exactly when the pipeline's sampling pump fires.
func (s *System) Probe() LiveStats {
	ls := LiveStats{LostReads: s.lostReads}
	for i, eng := range s.engines {
		es := eng.Stats()
		ls.Consumptions += es.Consumptions
		ls.Covered += es.Covered
		ls.BlocksFetched += es.BlocksFetched
		ls.StreamsAllocated += es.StreamsAllocated
		ls.Refills += es.RefillRequests
		st := eng.SVB().Stats()
		ls.Discards += st.Discards
		ls.Evicted += st.Evicted
		ls.Invalidated += st.Invalidated
		ls.SVBResident += eng.SVB().Len()
		ls.CMOBBytes += s.cmobs[i].StorageBytes()
	}
	return ls
}

// EventSource is the pull-based event iterator RunSource consumes: Next
// returns io.EOF when the stream ends. It is structurally identical to
// stream.Source, declared locally so that the tse package (which prefetch
// depends on) stays independent of the stream package's import graph.
type EventSource interface {
	Next() (trace.Event, error)
}

// sliceSource iterates an in-memory event slice (Run's adapter onto
// RunSource).
type sliceSource struct {
	events []trace.Event
	pos    int
}

func (s *sliceSource) Next() (trace.Event, error) {
	if s.pos >= len(s.events) {
		return trace.Event{}, io.EOF
	}
	e := s.events[s.pos]
	s.pos++
	return e, nil
}

// Run processes every event of a trace and returns the final result. It is
// a convenience wrapper over Consumption/Write/Finish, and panics where
// Consumption does.
func (s *System) Run(tr *trace.Trace) Result {
	res, err := s.RunSource(&sliceSource{events: tr.Events})
	if err != nil {
		panic(err)
	}
	return res
}

// RunSource processes every event of a pull-based event stream and returns
// the final result. The events are observed one at a time in stream order —
// the trace is never materialized — so a trace file of any size drives the
// full TSE system in bounded memory, and the result is bit-identical to
// Run over the equivalent in-memory trace. A source error other than io.EOF,
// or a consumption by a node outside [0, Nodes) (a *NodeError), aborts the
// run; the partial result (flushed via Finish) is returned with the error,
// and the System must not be used afterwards either way.
func (s *System) RunSource(src EventSource) (Result, error) {
	for {
		e, err := src.Next()
		if err == io.EOF {
			return s.Finish(), nil
		}
		if err != nil {
			return s.Finish(), err
		}
		switch e.Kind {
		case trace.KindConsumption:
			if _, err := s.consumeOwn(e.Node, e.Block); err != nil {
				return s.Finish(), err
			}
		case trace.KindWrite:
			s.Write(e)
		}
	}
}
