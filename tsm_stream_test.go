package tsm

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsm/internal/mem"
	"tsm/internal/stream"
	"tsm/internal/trace"
)

// TestStreamedTraceFileBytesMatchMaterialized is the tentpole's byte-level
// acceptance criterion: for EVERY registered workload (the ten-suite plus the
// mix), encoding the trace through the fully streamed pipeline — generator
// Emit → coherence engine → codec, no intermediate slice anywhere — must
// produce a .tsm byte stream identical to the materialized reference path
// (Generate → Run → SaveTrace). This is the in-process form of the
// `tracegen` vs `tracegen -materialize` byte-diff CI runs on a large
// workload.
func TestStreamedTraceFileBytesMatchMaterialized(t *testing.T) {
	opts := Options{Nodes: 4, Scale: 0.03, Seed: 11}
	for _, name := range AllWorkloads() {
		name := name
		t.Run(name, func(t *testing.T) {
			// Streamed: no access slice, no event slice.
			var streamed bytes.Buffer
			w, err := stream.NewWriter(&streamed, stream.Meta{Workload: name, Nodes: opts.Nodes, Scale: opts.Scale, Seed: opts.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := StreamTrace(name, opts, w); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			// Materialized reference.
			tr, gen, err := GenerateTrace(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			var materialized bytes.Buffer
			mw, err := stream.NewWriter(&materialized, stream.Meta{Workload: strings.ToLower(gen.Name()), Nodes: opts.Nodes, Scale: opts.Scale, Seed: opts.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := stream.Copy(mw, stream.TraceSource(tr)); err != nil {
				t.Fatal(err)
			}
			if err := mw.Close(); err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(streamed.Bytes(), materialized.Bytes()) {
				t.Fatalf("%s: streamed .tsm (%d bytes) differs from materialized .tsm (%d bytes)",
					name, streamed.Len(), materialized.Len())
			}
		})
	}
}

// TestStreamTraceMatchesGenerateTrace: the streaming generation path must
// emit exactly the events the materializing path produces.
func TestStreamTraceMatchesGenerateTrace(t *testing.T) {
	opts := testOpts()
	want, _, err := GenerateTrace("db2", opts)
	if err != nil {
		t.Fatal(err)
	}
	var sink stream.TraceSink
	_, n, err := StreamTrace("db2", opts, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != want.Len() || sink.Trace.Len() != want.Len() {
		t.Fatalf("streamed %d events (sink %d), want %d", n, sink.Trace.Len(), want.Len())
	}
	for i := range want.Events {
		if sink.Trace.Events[i] != want.Events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, sink.Trace.Events[i], want.Events[i])
		}
	}
	if _, _, err := StreamTrace("nope", opts, &sink); err == nil {
		t.Fatal("unknown workload should error")
	}
}

// TestTraceFileRoundTripReport is the cross-process acceptance path in
// miniature: generate→save→load→evaluate must reproduce the in-process
// Report bit for bit (coverage, discards, and the timing-model speedup).
func TestTraceFileRoundTripReport(t *testing.T) {
	opts := testOpts()
	tr, gen, err := GenerateTrace("em3d", opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvaluateTSE(tr, gen, opts)
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/em3d.tsm"
	if err := SaveTrace(path, tr, gen, opts); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Workload != "em3d" || meta.Nodes != opts.Nodes || meta.Scale != opts.Scale || meta.Seed != opts.Seed {
		t.Fatalf("meta = %+v, want the generation options", meta)
	}
	gen2, err := GeneratorFor(meta)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateTSE(loaded, gen2, OptionsFor(meta))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("replayed report %+v != in-process report %+v", got, want)
	}

	if err := SaveTrace(path, nil, gen, opts); err == nil {
		t.Fatal("nil trace should error")
	}
	if _, err := GeneratorFor(TraceMeta{Workload: "bogus"}); err == nil {
		t.Fatal("bogus metadata should error")
	}
}

// TestFileReplayParityAllWorkloads: for EVERY workload — the paper's seven,
// the extended matrix and the cross-workload mixes — the fused single-decode
// file replay must agree bit for bit with the serial in-memory reference
// over the loaded trace: EvaluateTSEFile with EvaluateTSE, and
// EvaluateAllFile with ComparePrefetchers.
func TestFileReplayParityAllWorkloads(t *testing.T) {
	opts := Options{Nodes: 4, Scale: 0.03, Seed: 11}
	dir := t.TempDir()
	for _, name := range AllWorkloads() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr, gen, err := GenerateTrace(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			path := dir + "/" + name + ".tsm"
			if err := SaveTrace(path, tr, gen, opts); err != nil {
				t.Fatal(err)
			}

			// The serial in-memory reference over the loaded trace.
			loaded, meta, err := LoadTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			gen2, err := GeneratorFor(meta)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EvaluateTSE(loaded, gen2, OptionsFor(meta))
			if err != nil {
				t.Fatal(err)
			}
			wantAll, err := ComparePrefetchers(loaded, gen2, OptionsFor(meta))
			if err != nil {
				t.Fatal(err)
			}

			// Fused streamed pipeline: one decode pass, three consumers.
			fused, err := EvaluateTSEFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if fused != want {
				t.Fatalf("fused report %+v != in-memory report %+v", fused, want)
			}

			// The Figure 12 comparison: one decode pass, four models.
			fusedAll, err := EvaluateAllFile(path)
			if err != nil {
				t.Fatal(err)
			}
			assertReports(t, fusedAll, wantAll)
		})
	}
}

// assertReports fails unless got and want hold the same reports in the
// same order.
func assertReports(t *testing.T, got, want []Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d reports, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report %d: fused %+v, want serial %+v", i, got[i], want[i])
		}
	}
}

// passCountingSource wraps a Source and counts Next calls, so a test can
// assert how many times a pipeline decoded the stream: a single full pass
// over an N-event trace is exactly N+1 calls (the events plus one io.EOF).
type passCountingSource struct {
	src   EventSource
	nexts int
}

func (c *passCountingSource) Next() (Event, error) {
	c.nexts++
	return c.src.Next()
}

// TestSingleDecodePass: the fused replay engine behind
// EvaluateTSEFile/EvaluateAllFile must decode the trace exactly ONCE — N
// events + one EOF read from the source — even though the TSE report needs
// three consumers and the Figure 12 comparison four, and the reports must
// match the serial in-memory reference bit for bit.
func TestSingleDecodePass(t *testing.T) {
	opts := testOpts()
	tr, gen, err := GenerateTrace("db2", opts)
	if err != nil {
		t.Fatal(err)
	}
	meta := TraceMeta{Workload: "db2", Nodes: opts.Nodes, Scale: opts.Scale, Seed: opts.Seed}
	wantNexts := tr.Len() + 1

	want, err := EvaluateTSE(tr, gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	src := &passCountingSource{src: stream.TraceSource(tr)}
	got, err := EvaluateTSESource(src, meta)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("single-pass report %+v != in-memory report %+v", got, want)
	}
	if src.nexts != wantNexts {
		t.Fatalf("EvaluateTSESource read the source %d times, want %d (one decode pass)", src.nexts, wantNexts)
	}

	wantAll, err := ComparePrefetchers(tr, gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	src = &passCountingSource{src: stream.TraceSource(tr)}
	gotAll, err := EvaluateAllSource(src, meta)
	if err != nil {
		t.Fatal(err)
	}
	assertReports(t, gotAll, wantAll)
	if src.nexts != wantNexts {
		t.Fatalf("EvaluateAllSource read the source %d times, want %d (one decode pass)", src.nexts, wantNexts)
	}

	if _, err := EvaluateTSESource(stream.TraceSource(tr), TraceMeta{Workload: "bogus"}); err == nil {
		t.Fatal("bogus metadata should error")
	}
	if _, err := EvaluateAllSource(stream.TraceSource(tr), TraceMeta{Workload: "bogus"}); err == nil {
		t.Fatal("bogus metadata should error")
	}
}

// TestEvaluateAllFileMatchesComparePrefetchers: the streamed Figure 12
// comparison over a trace file must reproduce the serial in-memory
// comparison exactly, in the same order.
func TestEvaluateAllFileMatchesComparePrefetchers(t *testing.T) {
	opts := testOpts()
	tr, gen, err := GenerateTrace("memkv", opts)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/memkv.tsm"
	if err := SaveTrace(path, tr, gen, opts); err != nil {
		t.Fatal(err)
	}
	want, err := ComparePrefetchers(tr, gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateAllFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertReports(t, got, want)
	if _, err := EvaluateAllFile(t.TempDir() + "/missing.tsm"); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestReplayMeta: the metadata-only read must match what LoadTrace decodes.
func TestReplayMeta(t *testing.T) {
	opts := testOpts()
	tr, gen, err := GenerateTrace("cdn", opts)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/cdn.tsm"
	if err := SaveTrace(path, tr, gen, opts); err != nil {
		t.Fatal(err)
	}
	meta, err := ReplayMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Workload != "cdn" || meta.Nodes != opts.Nodes || meta.Scale != opts.Scale || meta.Seed != opts.Seed {
		t.Fatalf("meta = %+v, want the generation options", meta)
	}
	if _, err := ReplayMeta(path + ".missing"); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestRunExperimentsParallel: the batched parallel runner must render the
// same tables as the serial single-experiment API.
func TestRunExperimentsParallel(t *testing.T) {
	opts := testOpts()
	ids := []string{"table1", "fig6", "fig12"}
	tables, err := RunExperiments(ids, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(ids) {
		t.Fatalf("got %d tables, want %d", len(tables), len(ids))
	}
	for i, id := range ids {
		want, err := RunExperiment(id, opts)
		if err != nil {
			t.Fatal(err)
		}
		if tables[i] != want {
			t.Errorf("%s: parallel table differs from serial:\n%s\nvs\n%s", id, tables[i], want)
		}
		if !strings.Contains(tables[i], id) {
			t.Errorf("%s: table missing its id header", id)
		}
	}
	if _, err := RunExperiments([]string{"fig999"}, opts); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestOutOfRangeNodeIsCorrupt: a hand-made trace file whose events name a
// node equal to its own node count is rejected by the decoder with
// ErrCorrupt on every replay path (serial, parallel, mmap), with no panic
// and no Report. No model downstream has state for such a node.
func TestOutOfRangeNodeIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.tsm")
	events := []Event{
		{Kind: trace.KindWrite, Node: 0, Block: 0x1000, Producer: mem.InvalidNode},
		{Kind: trace.KindConsumption, Node: 1, Block: 0x1000, Producer: 0},
		{Kind: trace.KindConsumption, Node: 4, Block: 0x1000, Producer: 0},
	}
	// The Writer refuses such a file, so write it for 5 nodes and then patch
	// the header's node count (the one-byte varint after the workload name).
	meta := stream.Meta{Workload: "db2", Nodes: 5, Scale: 0.05, Seed: 7}
	if _, err := stream.WriteFile(path, meta, stream.NewSliceSource(events)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nodesAt := len(stream.Magic) + 1 + 1 + len(meta.Workload)
	if data[nodesAt] != 5 {
		t.Fatalf("header byte %d = %d, want the node count 5", nodesAt, data[nodesAt])
	}
	data[nodesAt] = 4
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, rc := range []ReplayConfig{{}, {DecodeWorkers: 2}, {Mmap: true}} {
		rep, err := EvaluateTSEFileWith(path, rc, Instrumentation{})
		if !errors.Is(err, stream.ErrCorrupt) || !strings.Contains(err.Error(), "node 4 outside [0,4)") {
			t.Fatalf("%+v: err = %v, want ErrCorrupt naming node 4", rc, err)
		}
		if rep != (Report{}) {
			t.Fatalf("%+v: corrupt trace produced a report: %v", rc, rep)
		}
		if reps, err := EvaluateAllFileWith(path, rc, Instrumentation{}); !errors.Is(err, stream.ErrCorrupt) || reps != nil {
			t.Fatalf("%+v: EvaluateAllFileWith = %v, %v, want ErrCorrupt and no reports", rc, reps, err)
		}
	}
}

// TestOutOfRangeNodeSourceIsError: an in-memory source whose events name a
// node outside the metadata's node count makes EvaluateTSESource fail with
// an error and no Report, whether the event is a consumption or a write.
// The timing models have no state for such a node, and the fused replay
// takes its coverage from them, so they must not skip it silently.
func TestOutOfRangeNodeSourceIsError(t *testing.T) {
	meta := TraceMeta{Workload: "db2", Nodes: 4, Scale: 0.05, Seed: 7}
	for _, bad := range []Event{
		{Kind: trace.KindConsumption, Node: 4, Block: 0x1000, Producer: 0},
		{Kind: trace.KindWrite, Node: 4, Block: 0x1000, Producer: mem.InvalidNode},
		{Kind: trace.KindConsumption, Node: -1, Block: 0x1000, Producer: 0},
	} {
		events := []Event{
			{Kind: trace.KindWrite, Node: 0, Block: 0x1000, Producer: mem.InvalidNode},
			{Kind: trace.KindConsumption, Node: 1, Block: 0x1000, Producer: 0},
			bad,
		}
		rep, err := EvaluateTSESource(stream.NewSliceSource(events), meta)
		if err == nil || !strings.Contains(err.Error(), "outside the 4-node system") {
			t.Fatalf("%v by node %d: err = %v, want the out-of-range node named", bad.Kind, bad.Node, err)
		}
		if rep != (Report{}) {
			t.Fatalf("%v by node %d: produced a report: %v", bad.Kind, bad.Node, rep)
		}
	}
}
