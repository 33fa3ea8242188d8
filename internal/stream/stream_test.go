package stream

import (
	"errors"
	"io"
	"runtime"
	"testing"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

func TestSliceSourceAndCollect(t *testing.T) {
	tr := randomTrace(100, 1)
	got, err := Collect(TraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("collected %d events, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	src := TraceSource(tr)
	for i := 0; i < tr.Len(); i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("exhausted source: %v, want io.EOF", err)
	}
}

// TestCollectReassignsSeq: sequence numbers are implicit in stream order,
// so collecting must produce dense Seq values regardless of the input's.
func TestCollectReassignsSeq(t *testing.T) {
	events := []trace.Event{
		{Seq: 99, Kind: trace.KindWrite, Node: 1, Block: 64, Producer: mem.InvalidNode},
		{Seq: 7, Kind: trace.KindConsumption, Node: 2, Block: 128, Producer: 1},
	}
	got, err := Collect(NewSliceSource(events))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got.Events {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
	}
}

func TestMultiSinkAndFuncSink(t *testing.T) {
	tr := randomTrace(50, 2)
	var a TraceSink
	var n int
	count := FuncSink(func(e trace.Event) error { n++; return nil })
	if _, err := Copy(MultiSink{&a, count}, TraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	if a.Trace.Len() != tr.Len() || n != tr.Len() {
		t.Fatalf("fan-out saw %d/%d events, want %d", a.Trace.Len(), n, tr.Len())
	}

	boom := errors.New("boom")
	fail := FuncSink(func(e trace.Event) error { return boom })
	if _, err := Copy(MultiSink{fail}, TraceSource(tr)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestRunOrdered(t *testing.T) {
	out, err := RunOrdered(100, 8, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d (merge must preserve index order)", i, v)
		}
	}
	boom := errors.New("boom")
	if _, err := RunOrdered(10, 4, func(i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Serial fallback path.
	out, err = RunOrdered(3, 1, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 3 {
		t.Fatalf("serial RunOrdered = %v, %v", out, err)
	}

	// Two failures on the parallel path: index 1 fails first in time, yet
	// the lowest failing index wins, exactly as on the serial path.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	err0, err1 := errors.New("task 0"), errors.New("task 1")
	failed1 := make(chan struct{})
	if _, err := RunOrdered(2, 2, func(i int) (int, error) {
		if i == 1 {
			close(failed1)
			return 0, err1
		}
		<-failed1
		return 0, err0
	}); err != err0 {
		t.Fatalf("err = %v, want the lowest failing index's %v", err, err0)
	}
}

// closerFunc adapts a function to io.Closer for CloseMerge tests.
type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// TestCloseMerge: the primary error always wins; the close error is adopted
// only when there is nothing to mask, and the closer runs on every path.
func TestCloseMerge(t *testing.T) {
	primary := errors.New("primary")
	closeErr := errors.New("close failed")
	closed := 0
	count := closerFunc(func() error { closed++; return nil })
	failing := closerFunc(func() error { closed++; return closeErr })

	if err := CloseMerge(count, nil); err != nil {
		t.Fatalf("nil + clean close = %v", err)
	}
	if err := CloseMerge(failing, nil); err != closeErr {
		t.Fatalf("nil + failing close = %v, want the close error", err)
	}
	if err := CloseMerge(failing, primary); err != primary {
		t.Fatalf("primary + failing close = %v, want the primary error", err)
	}
	if err := CloseMerge(count, primary); err != primary {
		t.Fatalf("primary + clean close = %v, want the primary error", err)
	}
	if closed != 4 {
		t.Fatalf("closer ran %d times, want 4 (every path closes)", closed)
	}
}
