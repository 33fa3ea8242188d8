package pipeline

import (
	"errors"
	"io"
	"strings"
	"testing"

	"tsm/internal/obs"
	"tsm/internal/stream"
)

// sumStage publishes, with each chunk, the first seq of the chunk and the
// sum of its block addresses, reusing the slot's previous product.
type sumStage struct {
	builds, reused int
	failAt         uint64 // fail the chunk holding this seq (0 = never)
	panicAt        uint64
}

type chunkSum struct{ first, sum uint64 }

func (*sumStage) Name() string { return "sum" }

func (s *sumStage) Build(c *stream.ChunkSoA, prev any) (any, error) {
	s.builds++
	p, _ := prev.(*chunkSum)
	if p == nil {
		p = &chunkSum{}
	} else {
		s.reused++
	}
	p.first, p.sum = c.Seq[0], 0
	for i, b := range c.Block {
		if s.failAt != 0 && c.Seq[i] == s.failAt {
			return nil, errStage
		}
		if s.panicAt != 0 && c.Seq[i] == s.panicAt {
			panic("stage blew up")
		}
		p.sum += uint64(b)
	}
	return p, nil
}

var errStage = errors.New("pipeline test: stage failed")

// stagedConsumer checks every chunk's product against the chunk itself.
type stagedConsumer struct {
	chunks, events int
	bad            error
}

func (c *stagedConsumer) Run(src stream.Source) error {
	ss := src.(StagedSource)
	for {
		cols, staged, err := ss.NextChunkStaged()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		p := staged.(*chunkSum)
		var sum uint64
		for _, b := range cols.Block {
			sum += uint64(b)
		}
		if p.first != cols.Seq[0] || p.sum != sum {
			c.bad = errors.New("product does not match its chunk")
		}
		c.chunks++
		c.events += cols.Len()
	}
}

// TestStageProductTravelsWithChunk: every consumer reads, with each chunk,
// the product built from exactly that chunk, at any ring shape and with a
// single consumer too; products are reused once the ring wraps; the stage
// records its busy time and spans.
func TestStageProductTravelsWithChunk(t *testing.T) {
	events := makeEvents(5000)
	for _, consumers := range []int{1, 3} {
		for _, shape := range [][2]int{{0, 0}, {7, 1}, {100, 2}} {
			stage := &sumStage{}
			m := obs.NewRegistry()
			tr := obs.NewTracer()
			cfg := Config{ChunkEvents: shape[0], ChunkBuffer: shape[1], Stage: stage, Metrics: m, Tracer: tr}
			cs := make([]*stagedConsumer, consumers)
			list := make([]Consumer, consumers)
			for i := range cs {
				cs[i] = &stagedConsumer{}
				list[i] = cs[i]
			}
			if err := cfg.Run(stream.NewSliceSource(events), list...); err != nil {
				t.Fatal(err)
			}
			for i, c := range cs {
				if c.bad != nil || c.events != len(events) || c.chunks != stage.builds {
					t.Fatalf("%d consumers %v: consumer %d saw %d chunks/%d events (%v), stage built %d",
						consumers, shape, i, c.chunks, c.events, c.bad, stage.builds)
				}
			}
			if stage.builds > 4 && stage.reused == 0 {
				t.Fatalf("%v: %d builds never reused a product", shape, stage.builds)
			}
			if m.Snapshot().Counters["pipeline.stage.sum.busy_ns"] == 0 {
				t.Fatalf("%v: stage busy time not recorded", shape)
			}
			if !hasSpan(tr, "sum", "stage") {
				t.Fatalf("%v: no stage span in the trace", shape)
			}
		}
	}
}

// TestStageErrorEndsStream: a Build error reaches every consumer as its
// terminal error after the chunks published before it, and Run returns it.
func TestStageErrorEndsStream(t *testing.T) {
	events := makeEvents(3000)
	stage := &sumStage{failAt: 2500}
	cs := []*stagedConsumer{{}, {}}
	err := Config{ChunkEvents: 100, Stage: stage}.Run(stream.NewSliceSource(events), cs[0], cs[1])
	if !errors.Is(err, errStage) {
		t.Fatalf("err = %v, want the stage's error", err)
	}
	for i, c := range cs {
		if c.events != 2500 {
			t.Fatalf("consumer %d saw %d events before the failing chunk, want 2500", i, c.events)
		}
	}
}

// panicConsumer panics after reading n events.
type panicConsumer struct{ n int }

func (c panicConsumer) Run(src stream.Source) error {
	for i := 0; ; i++ {
		if _, err := src.Next(); err != nil {
			return err
		}
		if i == c.n {
			panic("consumer blew up")
		}
	}
}

// TestPanicBecomesError: a panic in a consumer, alone or beside others, or
// in the producer's stage is returned as a *PanicError naming where it
// happened, and the process survives.
func TestPanicBecomesError(t *testing.T) {
	events := makeEvents(3000)
	cases := []struct {
		name  string
		cfg   Config
		run   []Consumer
		where string
	}{
		{"single", Config{ConsumerNames: []string{"cellA"}}, []Consumer{panicConsumer{10}}, "consumer cellA"},
		{"ring", Config{ConsumerNames: []string{"ok", "cellB"}}, []Consumer{&recordConsumer{}, panicConsumer{1500}}, "consumer cellB"},
		{"stage", Config{Stage: &sumStage{panicAt: 1200}}, []Consumer{&stagedConsumer{}, &stagedConsumer{}}, "producer"},
	}
	for _, c := range cases {
		err := c.cfg.Run(stream.NewSliceSource(events), c.run...)
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Name != c.where || !strings.Contains(err.Error(), c.where+" panicked") {
			t.Fatalf("%s: err = %v, want a *PanicError from %s", c.name, err, c.where)
		}
	}
}

// halfReader reads one event, then asks for a staged chunk.
type halfReader struct{ err error }

func (c *halfReader) Run(src stream.Source) error {
	if _, err := src.Next(); err != nil {
		return err
	}
	_, _, c.err = src.(StagedSource).NextChunkStaged()
	return nil
}

// TestNextChunkStagedRefusesPartialChunk: the product covers whole chunks,
// so a consumer that already read part of the chunk cannot take it.
func TestNextChunkStagedRefusesPartialChunk(t *testing.T) {
	c := &halfReader{}
	if err := (Config{Stage: &sumStage{}}).Run(stream.NewSliceSource(makeEvents(100)), c); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(c.err, errPartialStaged) {
		t.Fatalf("err = %v, want errPartialStaged", c.err)
	}
}

// hasSpan reports whether the tracer recorded a span of that name and
// category.
func hasSpan(tr *obs.Tracer, name, cat string) bool {
	for _, sp := range tr.Spans() {
		if sp.Name == name && sp.Cat == cat {
			return true
		}
	}
	return false
}
