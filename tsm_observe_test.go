package tsm

// Facade tests for the PR 8 observability surfaces: per-run time-series
// sampled through the replay pipeline, and run manifests recording trace
// provenance, stage wall times and the final metrics snapshot.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"tsm/internal/pipeline"
	"tsm/internal/stream"
)

// TestFileReplaySeries: an attached SeriesSet collects one series per
// consumer of the TSE replay, the sampling interval auto-sizes from the
// trace's indexed event count, and the final "timing-tse" sample carries
// exactly the coverage the Report states — the time-series lands on the
// end-of-run truth, not an approximation of it.
func TestFileReplaySeries(t *testing.T) {
	path := writeTestTrace(t, "db2")
	info, err := stream.Describe(path)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewSeriesSet()
	rep, err := EvaluateTSEFileWith(path, ReplayConfig{}, Instrumentation{Series: ss})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Interval() == 0 {
		t.Fatal("facade did not auto-size the sampling interval from the index")
	}
	snap := ss.Snapshot()
	for _, name := range tseConsumerNames() {
		if len(snap.Series[name].Points) == 0 {
			t.Fatalf("consumer %q collected no samples; snapshot has %v", name, snap.Series)
		}
	}
	pts := snap.Series["timing-tse"].Points
	last := pts[len(pts)-1]
	if last.Seq != info.Events-1 {
		t.Fatalf("final sample at seq %d, want last event %d", last.Seq, info.Events-1)
	}
	if got := last.Values["coverage"]; got != rep.Coverage {
		t.Fatalf("final sampled coverage %v != report coverage %v", got, rep.Coverage)
	}
	if got := last.Values["consumptions"]; got != float64(rep.Consumptions) {
		t.Fatalf("final sampled consumptions %v != report %d", got, rep.Consumptions)
	}
	// Monotonic cumulative counts: samples are ordered by seq and
	// consumptions never decrease.
	for i := 1; i < len(pts); i++ {
		if pts[i].Seq <= pts[i-1].Seq {
			t.Fatalf("sample seqs not increasing: %d then %d", pts[i-1].Seq, pts[i].Seq)
		}
		if pts[i].Values["consumptions"] < pts[i-1].Values["consumptions"] {
			t.Fatalf("cumulative consumptions decreased at sample %d", i)
		}
	}
	// The timing consumers sample per-epoch latency quantiles, and the
	// TSE lane splits its discards by reason.
	for _, name := range tseConsumerNames() {
		tpts := snap.Series[name].Points
		if v, ok := tpts[len(tpts)-1].Values["latency_p99"]; !ok || v <= 0 {
			t.Fatalf("%s series missing latency_p99: %v", name, tpts[len(tpts)-1].Values)
		}
	}
	v := last.Values
	if v["discards_evicted"]+v["discards_invalidated"] != v["discards"] || v["discards_evicted"] == 0 {
		t.Fatalf("final sample's discards by reason do not add up: %v", v)
	}
}

// TestFileReplayManifest: the manifest records the trace's content identity
// (SHA-256, codec version, chunk/event counts, workload metadata), the
// replay settings, the timed stages in order, and the final metrics
// snapshot; WriteFile produces parseable JSON.
func TestFileReplayManifest(t *testing.T) {
	path := writeTestTrace(t, "ocean")
	info, err := stream.Describe(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)

	rm := NewRunManifest()
	rm.SetCommand([]string{"tsesim", "-i", path})
	ins := Instrumentation{Metrics: NewMetrics(), Manifest: rm}
	if _, err := EvaluateTSEFileWith(path, ReplayConfig{DecodeWorkers: 2}, ins); err != nil {
		t.Fatal(err)
	}

	m := rm.Snapshot()
	if m.Tool != "tsm" || m.Version != ToolVersion {
		t.Fatalf("tool/version = %q/%q", m.Tool, m.Version)
	}
	if m.Trace.SHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("sha256 = %q, want %q", m.Trace.SHA256, hex.EncodeToString(sum[:]))
	}
	if m.Trace.CodecVersion != stream.Version || m.Trace.Chunks != info.Chunks || m.Trace.Events != info.Events {
		t.Fatalf("trace provenance %+v does not match Describe %+v", m.Trace, info)
	}
	if m.Trace.Workload != "ocean" || m.Trace.Nodes != 4 || m.Trace.Seed != 11 {
		t.Fatalf("workload metadata %+v", m.Trace)
	}
	if m.Replay.Op != "replay-tse" || m.Replay.DecodeWorkers != 2 {
		t.Fatalf("replay settings %+v", m.Replay)
	}
	var names []string
	for _, st := range m.Stages {
		names = append(names, st.Name)
		if st.WallNs < 0 {
			t.Fatalf("stage %q has negative wall time", st.Name)
		}
	}
	if len(names) != 3 || names[0] != "open" || names[1] != "replay" || names[2] != "hash" {
		t.Fatalf("stages = %v, want [open replay hash]", names)
	}
	if m.Metrics == nil {
		t.Fatal("manifest missing final metrics snapshot")
	}
	if n := m.Metrics.Counters["pipeline.events_decoded"]; n != info.Events {
		t.Fatalf("snapshot events_decoded = %d, want %d", n, info.Events)
	}

	out := t.TempDir() + "/manifest.json"
	if err := rm.WriteFile(out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest file is not valid JSON: %v", err)
	}
	if back.Trace.SHA256 != m.Trace.SHA256 || len(back.Stages) != len(m.Stages) {
		t.Fatalf("round-tripped manifest %+v != %+v", back, m)
	}
}

// TestManifestDeterministicShape: two identical runs produce byte-identical
// manifests once the legitimately timing-dependent fields — stage wall
// times, the nanosecond/throughput metrics, the backpressure wait
// histograms and the cursor lag and ring occupancy gauges, all functions of
// scheduling rather than of the evaluation — are cleared. The lag and
// occupancy gauges are still checked against the ring capacity that bounds
// them. The JSON shape, key order, trace provenance and every deterministic
// metric (event counts, per-consumer totals) are stable.
func TestManifestDeterministicShape(t *testing.T) {
	path := writeTestTrace(t, "moldyn")
	encode := func() []byte {
		rm := NewRunManifest()
		rm.SetCommand([]string{"tsesim", "-i", path})
		if _, err := EvaluateTSEFileWith(path, ReplayConfig{}, Instrumentation{Metrics: NewMetrics(), Manifest: rm}); err != nil {
			t.Fatal(err)
		}
		m := rm.Snapshot()
		for i := range m.Stages {
			m.Stages[i].WallNs = 0
		}
		m.Metrics.Histograms = nil
		for name := range m.Metrics.Counters {
			if strings.HasSuffix(name, "_ns") {
				delete(m.Metrics.Counters, name)
			}
		}
		lags := 0
		for name, v := range m.Metrics.Gauges {
			lag := strings.HasPrefix(name, "pipeline.consumer.") && strings.HasSuffix(name, ".lag_max")
			switch {
			case strings.HasSuffix(name, "_per_sec"):
				delete(m.Metrics.Gauges, name)
			case lag || strings.HasPrefix(name, "pipeline.ring.occupancy"):
				if v < 0 || v > pipeline.DefaultChunkBuffer {
					t.Errorf("%s = %d, want within the ring capacity [0, %d]", name, v, pipeline.DefaultChunkBuffer)
				}
				delete(m.Metrics.Gauges, name)
				if lag {
					lags++
				}
			}
		}
		if lags == 0 {
			t.Fatal("manifest carries no pipeline.consumer.*.lag_max gauges")
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("manifests differ between identical runs:\n%s\n---\n%s", a, b)
	}
}

// TestSweepSeriesAndManifest: a sweep run collects one series per cell
// (labelled like the trace lanes, e.g. "LA=8") and stamps the sweep name
// into the manifest.
func TestSweepSeriesAndManifest(t *testing.T) {
	path := writeTestTrace(t, "em3d")
	ss := NewSeriesSet()
	rm := NewRunManifest()
	cells, err := EvaluateTSESweepFileWith(path, "lookahead", ReplayConfig{}, Instrumentation{Series: ss, Manifest: rm})
	if err != nil {
		t.Fatal(err)
	}
	snap := ss.Snapshot()
	if len(snap.Series) != len(cells) {
		t.Fatalf("got %d series for %d sweep cells: %v", len(snap.Series), len(cells), snap.Series)
	}
	for _, c := range cells {
		pts := snap.Series[c.Label].Points
		if len(pts) == 0 {
			t.Fatalf("cell %q collected no samples", c.Label)
		}
		if got := pts[len(pts)-1].Values["coverage"]; got != c.Report.Coverage {
			t.Fatalf("cell %q final sampled coverage %v != report %v", c.Label, got, c.Report.Coverage)
		}
	}
	m := rm.Snapshot()
	if m.Replay.Op != "sweep" || m.Replay.Sweep != "lookahead" {
		t.Fatalf("sweep manifest replay settings %+v", m.Replay)
	}
}

// TestSweepArrangeStageIsVisible: a sweep of two or more cells builds its
// shared CMOB arrangement in a pipeline stage of its own, whose busy time
// and per-chunk spans show its share of the run; a replay builds none.
func TestSweepArrangeStageIsVisible(t *testing.T) {
	const busy = "pipeline.stage.arrange.busy_ns"
	path := writeTestTrace(t, "db2")
	m, tr := NewMetrics(), NewTracer()
	if _, err := EvaluateTSESweepFileWith(path, "lookahead", ReplayConfig{}, Instrumentation{Metrics: m, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	counters := m.Snapshot().Counters
	if counters[busy] == 0 || counters[busy] > counters["pipeline.wall_ns"] {
		t.Fatalf("%s = %d with pipeline.wall_ns = %d, want non-zero and within the wall time", busy, counters[busy], counters["pipeline.wall_ns"])
	}
	spans := 0
	for _, sp := range tr.Spans() {
		if sp.Name == "arrange" && sp.Cat == "stage" {
			spans++
		}
	}
	if uint64(spans) != counters["pipeline.chunks_decoded"] {
		t.Fatalf("%d arrange spans for %d chunks", spans, counters["pipeline.chunks_decoded"])
	}

	m = NewMetrics()
	if _, err := EvaluateTSEFileWith(path, ReplayConfig{}, Instrumentation{Metrics: m}); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Snapshot().Counters[busy]; ok {
		t.Fatalf("a replay reported %s", busy)
	}
}
