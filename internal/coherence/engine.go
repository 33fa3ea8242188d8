// Package coherence implements the functional cache-coherence engine that
// converts raw workload accesses into the classified event stream the rest
// of the repository consumes. It models, per node, a private cache (finite,
// Table 1's 8 MB L2 by default, or infinite for correlation studies) and a
// full-map directory; every access is classified as a hit, a private (cold/
// capacity) miss, a coherent read miss ("consumption"), or a write, and the
// corresponding trace events are emitted in global order.
//
// This corresponds to the paper's trace-driven methodology: traces collected
// with in-order execution and no memory-system stalls (Section 4), which is
// exactly a functional simulation.
package coherence

import (
	"fmt"
	"math/bits"

	"tsm/internal/cache"
	"tsm/internal/directory"
	"tsm/internal/mem"
	"tsm/internal/trace"
)

// Classification is the outcome of one access.
type Classification uint8

const (
	// Hit means the access was satisfied by the node's private cache.
	Hit Classification = iota
	// PrivateMiss is a read miss with no coherence involvement (cold or
	// capacity miss to data last written by this node or never written).
	PrivateMiss
	// Consumption is a coherent read miss that is not a spin: the unit of
	// measurement throughout the paper.
	Consumption
	// SpinMiss is a coherent read miss that is part of a lock/barrier
	// spin and therefore excluded from consumptions.
	SpinMiss
	// WriteHit is a store that hit a locally writable copy.
	WriteHit
	// WriteMiss is a store that required obtaining ownership.
	WriteMiss
)

// String implements fmt.Stringer.
func (c Classification) String() string {
	switch c {
	case Hit:
		return "hit"
	case PrivateMiss:
		return "private-miss"
	case Consumption:
		return "consumption"
	case SpinMiss:
		return "spin-miss"
	case WriteHit:
		return "write-hit"
	case WriteMiss:
		return "write-miss"
	default:
		return fmt.Sprintf("Classification(%d)", uint8(c))
	}
}

// Config parameterises the engine.
type Config struct {
	// Nodes is the number of nodes.
	Nodes int
	// Geometry is the block geometry.
	Geometry mem.Geometry
	// CacheConfig describes each node's private cache. A zero SizeBytes
	// selects an infinite cache (misses are then cold or coherence misses
	// only), which matches the paper's observation that coherence misses
	// dominate as caches grow.
	CacheConfig cache.Config
	// PointersPerEntry is ignored. The coherence directory keeps no CMOB
	// pointers: the TSE model owns its pointer table (internal/tse), sized
	// by tse.Config.ComparedStreams. The field is kept so that existing
	// configuration literals still compile.
	PointersPerEntry int
}

// DefaultConfig returns a 16-node engine with Table 1's 8 MB 8-way L2 as the
// private cache.
func DefaultConfig() Config {
	return Config{
		Nodes:    16,
		Geometry: mem.DefaultGeometry(),
		CacheConfig: cache.Config{
			Name: "L2", SizeBytes: 8 << 20, Ways: 8, BlockSize: mem.DefaultBlockSize,
		},
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes > 64 {
		return fmt.Errorf("coherence: node count %d out of range [1,64]", c.Nodes)
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.CacheConfig.SizeBytes != 0 {
		if err := c.CacheConfig.Validate(); err != nil {
			return err
		}
		if c.CacheConfig.BlockSize != c.Geometry.BlockSize {
			return fmt.Errorf("coherence: cache block size %d != geometry block size %d",
				c.CacheConfig.BlockSize, c.Geometry.BlockSize)
		}
	}
	return nil
}

// nodeCache abstracts the finite and infinite private cache variants.
type nodeCache interface {
	access(b mem.BlockAddr, write bool) bool
	fill(b mem.BlockAddr, st cache.LineState) (victim cache.Victim)
	invalidate(b mem.BlockAddr) (present, dirty bool)
	downgrade(b mem.BlockAddr) bool
	present(b mem.BlockAddr) bool
}

type finiteCache struct{ c *cache.Cache }

func (f finiteCache) access(b mem.BlockAddr, write bool) bool { return f.c.Access(b, write) }
func (f finiteCache) fill(b mem.BlockAddr, st cache.LineState) cache.Victim {
	return f.c.Fill(b, st)
}
func (f finiteCache) invalidate(b mem.BlockAddr) (bool, bool) { return f.c.Invalidate(b) }
func (f finiteCache) downgrade(b mem.BlockAddr) bool          { return f.c.Downgrade(b) }
func (f finiteCache) present(b mem.BlockAddr) bool {
	_, ok := f.c.Lookup(b)
	return ok
}

type infiniteCache struct {
	lines map[mem.BlockAddr]cache.LineState
}

func newInfiniteCache() *infiniteCache {
	return &infiniteCache{lines: make(map[mem.BlockAddr]cache.LineState)}
}

func (i *infiniteCache) access(b mem.BlockAddr, write bool) bool {
	st, ok := i.lines[b]
	if !ok || st == cache.Invalid {
		return false
	}
	if write {
		i.lines[b] = cache.Modified
	}
	return true
}

func (i *infiniteCache) fill(b mem.BlockAddr, st cache.LineState) cache.Victim {
	if cur, ok := i.lines[b]; ok && cur == cache.Modified {
		st = cache.Modified
	}
	i.lines[b] = st
	return cache.Victim{}
}

func (i *infiniteCache) invalidate(b mem.BlockAddr) (bool, bool) {
	st, ok := i.lines[b]
	if !ok || st == cache.Invalid {
		return false, false
	}
	delete(i.lines, b)
	return true, st == cache.Modified
}

func (i *infiniteCache) downgrade(b mem.BlockAddr) bool {
	if i.lines[b] == cache.Modified {
		i.lines[b] = cache.Shared
		return true
	}
	return false
}

func (i *infiniteCache) present(b mem.BlockAddr) bool {
	st, ok := i.lines[b]
	return ok && st != cache.Invalid
}

// Stats accumulates per-engine counters.
type Stats struct {
	Accesses      uint64
	Hits          uint64
	PrivateMisses uint64
	Consumptions  uint64
	SpinMisses    uint64
	WriteHits     uint64
	WriteMisses   uint64
	Invalidations uint64
}

// Engine is the functional coherence engine.
type Engine struct {
	cfg    Config
	dir    *directory.Directory
	caches []nodeCache
	stats  Stats
}

// New builds an engine. It panics on an invalid configuration.
func New(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	dir := directory.New(directory.Config{Nodes: cfg.Nodes, Geometry: cfg.Geometry})
	caches := make([]nodeCache, cfg.Nodes)
	for i := range caches {
		if cfg.CacheConfig.SizeBytes == 0 {
			caches[i] = newInfiniteCache()
		} else {
			cc := cfg.CacheConfig
			cc.Name = fmt.Sprintf("%s[%d]", cc.Name, i)
			caches[i] = finiteCache{c: cache.New(cc)}
		}
	}
	return &Engine{cfg: cfg, dir: dir, caches: caches}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Directory exposes the coherence directory.
func (e *Engine) Directory() *directory.Directory { return e.dir }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// Result describes the classification of one access.
type Result struct {
	Class    Classification
	Block    mem.BlockAddr
	Producer mem.NodeID
	// Invalidated is the set of nodes whose copies a write invalidated.
	Invalidated directory.SharerSet
}

// Access processes one access, updates the caches and directory, appends the
// corresponding events to tr (if non-nil), and returns the classification.
func (e *Engine) Access(a mem.Access, tr *trace.Trace) Result {
	if tr == nil {
		return e.AccessEmit(a, nil)
	}
	return e.AccessEmit(a, tr.Append)
}

// AccessEmit is Access with a streaming event consumer: instead of appending
// to an in-memory trace, the classified events (with zero Seq — sequence
// numbers are the caller's to assign, see RunStream) are handed to emit as
// they are produced. A nil emit classifies without recording.
func (e *Engine) AccessEmit(a mem.Access, emit func(trace.Event)) Result {
	if int(a.Node) < 0 || int(a.Node) >= e.cfg.Nodes {
		panic(fmt.Sprintf("coherence: access from node %d outside [0,%d)", a.Node, e.cfg.Nodes))
	}
	e.stats.Accesses++
	b := e.cfg.Geometry.BlockOf(a.Addr)
	c := e.caches[a.Node]
	write := a.Type == mem.Write || a.Type == mem.AtomicRMW

	if write {
		return e.write(a, b, c, emit)
	}
	return e.read(a, b, c, emit)
}

func (e *Engine) read(a mem.Access, b mem.BlockAddr, c nodeCache, emit func(trace.Event)) Result {
	if c.access(b, false) {
		e.stats.Hits++
		return Result{Class: Hit, Block: b}
	}
	rd := e.dir.Read(a.Node, b)
	// Fill the local cache; the previous owner (if any) downgrades.
	if rd.Owner != mem.InvalidNode && rd.Owner != a.Node {
		e.caches[rd.Owner].downgrade(b)
	}
	if v := c.fill(b, cache.Shared); v.Valid {
		e.dir.Evict(a.Node, v.Block, v.Dirty)
	}
	if !rd.Coherent {
		e.stats.PrivateMisses++
		if emit != nil {
			emit(trace.Event{Kind: trace.KindReadMiss, Node: a.Node, Block: b, Producer: mem.InvalidNode})
		}
		return Result{Class: PrivateMiss, Block: b, Producer: rd.Producer}
	}
	if a.Spin {
		e.stats.SpinMisses++
		return Result{Class: SpinMiss, Block: b, Producer: rd.Producer}
	}
	e.stats.Consumptions++
	if emit != nil {
		emit(trace.Event{Kind: trace.KindConsumption, Node: a.Node, Block: b, Producer: rd.Producer})
	}
	return Result{Class: Consumption, Block: b, Producer: rd.Producer}
}

func (e *Engine) write(a mem.Access, b mem.BlockAddr, c nodeCache, emit func(trace.Event)) Result {
	// A write hit requires a locally modified copy; a hit on a shared copy
	// is an upgrade, which still visits the directory.
	hadModified := false
	if c.present(b) {
		// Probe without disturbing state: access() would upgrade the line
		// before the directory grants ownership, so check via directory.
		entry := e.dir.Lookup(b)
		hadModified = entry != nil && entry.State == directory.Modified && entry.Owner == a.Node
	}
	if hadModified {
		c.access(b, true)
		e.stats.WriteHits++
		if emit != nil {
			emit(trace.Event{Kind: trace.KindWrite, Node: a.Node, Block: b, Producer: mem.InvalidNode})
		}
		return Result{Class: WriteHit, Block: b}
	}
	wr := e.dir.Write(a.Node, b)
	for m := uint64(wr.Invalidated); m != 0; m &= m - 1 {
		e.caches[bits.TrailingZeros64(m)].invalidate(b)
	}
	e.stats.Invalidations += uint64(wr.Invalidated.Count())
	if v := c.fill(b, cache.Modified); v.Valid {
		e.dir.Evict(a.Node, v.Block, v.Dirty)
	}
	e.stats.WriteMisses++
	if emit != nil {
		emit(trace.Event{Kind: trace.KindWrite, Node: a.Node, Block: b, Producer: mem.InvalidNode})
	}
	return Result{Class: WriteMiss, Block: b, Invalidated: wr.Invalidated}
}

// AccessSource pushes a globally ordered access stream to a yield callback,
// one access at a time. A non-nil error from yield must abort the push
// promptly and be returned unchanged. workload.Generator.Emit satisfies this
// shape directly, so a generator streams into the engine with no intermediate
// slice: eng.RunSource(gen.Emit, sink).
type AccessSource func(yield func(mem.Access) error) error

// SliceAccesses adapts a materialized access slice to an AccessSource.
func SliceAccesses(accesses []mem.Access) AccessSource {
	return func(yield func(mem.Access) error) error {
		for _, a := range accesses {
			if err := yield(a); err != nil {
				return err
			}
		}
		return nil
	}
}

// RunSource processes an access source, emitting classified events (with
// dense sequence numbers assigned in emission order) to emit as they are
// produced. This is the engine's primary entry point: generation, coherence
// classification and the caller's sink compose one access at a time, so the
// whole generate→classify→encode pipeline runs in memory bounded by the
// source's own state, never the trace length. A non-nil error from emit
// aborts the run immediately — a dead sink (full disk, closed pipe) must not
// cost the rest of the generation — and is returned; an error from the
// source itself is returned as-is.
func (e *Engine) RunSource(src AccessSource, emit func(trace.Event) error) error {
	var seq uint64
	var emitErr error
	numbered := func(ev trace.Event) {
		if emitErr != nil {
			return
		}
		ev.Seq = seq
		seq++
		emitErr = emit(ev)
	}
	err := src(func(a mem.Access) error {
		e.AccessEmit(a, numbered)
		return emitErr
	})
	if emitErr != nil {
		return emitErr
	}
	return err
}

// RunStream is RunSource over a materialized access slice.
func (e *Engine) RunStream(accesses []mem.Access, emit func(trace.Event) error) error {
	return e.RunSource(SliceAccesses(accesses), emit)
}

// RunFrom processes an access source and materializes the classified trace.
func (e *Engine) RunFrom(src AccessSource) (*trace.Trace, error) {
	tr := &trace.Trace{}
	err := e.RunSource(src, func(ev trace.Event) error {
		tr.Events = append(tr.Events, ev)
		return nil
	})
	return tr, err
}

// Run processes a whole access stream, returning the generated trace.
func (e *Engine) Run(accesses []mem.Access) *trace.Trace {
	// The sink never fails, so neither does the run.
	tr, _ := e.RunFrom(SliceAccesses(accesses))
	return tr
}
