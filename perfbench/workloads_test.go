package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
)

// tiny keeps the workloads small enough for a unit test.
var tiny = sizes{nodes: 4, scale: 0.02, repeat: 1}

// TestReferenceCatchesEveryOp feeds the op a reference with one count off by
// one: every op must be flagged as failed, and the loop must run on.
func TestReferenceCatchesEveryOp(t *testing.T) {
	dir := t.TempDir()
	in, err := fileInput("db2", 7, dir, tiny)
	if err != nil {
		t.Fatal(err)
	}
	want, err := replayReference(in)
	if err != nil {
		t.Fatal(err)
	}
	if r := runLoop(replayInstance(in, want).op, 0, 3); r.failed != 0 {
		t.Fatalf("the true reference flagged %d of %d ops: %v", r.failed, r.attempted, r.firstErr)
	}
	want.Consumptions++
	r := runLoop(replayInstance(in, want).op, 0, 3)
	if r.attempted != 3 || r.failed != r.attempted {
		t.Fatalf("off-by-one reference: %d of %d ops failed, want all", r.failed, r.attempted)
	}
	if !errors.Is(r.firstErr, errMismatch) {
		t.Errorf("failure is %v, want a mismatch", r.firstErr)
	}

	sweepIn, err := fileInput("em3d", 7, dir, tiny)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweepReference(sweepIn)
	if err != nil {
		t.Fatal(err)
	}
	if r := runLoop(sweepInstance(sweepIn, cells).op, 0, 2); r.failed != 0 {
		t.Fatalf("the true sweep reference flagged %d of %d ops: %v", r.failed, r.attempted, r.firstErr)
	}
	cells[len(cells)-1].Report.Consumptions--
	if r := runLoop(sweepInstance(sweepIn, cells).op, 0, 2); r.failed != r.attempted {
		t.Fatalf("off-by-one sweep reference: %d of %d ops failed, want all", r.failed, r.attempted)
	}
}

// TestTracedRunPrintsEveryLayerMetric runs one traced round per workload on
// tiny inputs and checks that every per-layer metric is measured.
func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer of every workload")
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			dir := t.TempDir()
			sz := tiny
			if def.name == "paper-figs" {
				sz = sizes{nodes: 16, scale: 0.01, repeat: 1}
			}
			inst, err := def.prepare(7, dir, sz)
			if err != nil {
				t.Fatal(err)
			}
			r, err := newLayerRun(inst, dir)
			if err != nil {
				t.Fatal(err)
			}
			values, err := tracedRun(r, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if r.ops.failed != 0 {
				t.Errorf("%d of %d traced ops failed: %v", r.ops.failed, r.ops.attempted, r.ops.firstErr)
			}
			for _, m := range perLayer {
				if _, ok := values[m.name]; !ok {
					t.Errorf("per-layer metric %s not measured", m.name)
				}
			}
			if len(values) != len(perLayer) {
				t.Errorf("measured %d metrics, BENCHMARK.json lists %d", len(values), len(perLayer))
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the workload
// and metric tables the benchmark prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, the benchmark %s %s %s", kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
			if bounded && (m.Bound == nil || *m.Bound != w.bound) {
				t.Errorf("%s %s: bound %v, the benchmark says %g", kind, m.Name, m.Bound, w.bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s %s has a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
