package main

// metricDef is one metric of the benchmark, as BENCHMARK.json lists it. For
// an end-to-end metric bound is the share of the parent's median by which it
// may get worse; for a per-layer metric note names the end-to-end metric and
// workload it should move. The test TestBenchmarkJSONMatches keeps
// BENCHMARK.json in step with these tables.
type metricDef struct {
	name, unit, better string
	bound              float64
	note               string
}

// endToEnd are the metrics a user sees, measured in host time with nothing
// traced. Timings are over closed-loop timed ops, after the warm-up op.
var endToEnd = []metricDef{
	{name: "events_per_s", unit: "events/s", better: "higher", bound: 0.25,
		note: "input events of one op / median op wall time"},
	{name: "op_s_tail", unit: "s", better: "lower", bound: 0.25,
		note: "highest percentile of op wall time with >= 10 timed ops beyond it"},
	{name: "cpu_s_per_mevent", unit: "s/Mevent", better: "lower", bound: 0.25,
		note: "process user+sys CPU per million input events over the timed ops"},
	{name: "alloc_bytes_per_event", unit: "B/event", better: "lower", bound: 0.2,
		note: "Go heap bytes allocated per input event over the timed ops"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25,
		note: "ru_maxrss of the process, which ran only this workload, over the timed ops (set-up peak cleared first)"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		note: "median over set-up rounds of generate+write, serial reference and warm-up op"},
}

// perLayer are the traced run's metrics. Per-event values are process CPU ns
// per input event of the layer's function called alone over the workload's
// inputs; *_s values are CPU seconds; a *_share_pct is that CPU, counted as
// often as one op runs the layer, as a percentage of one untraced op's CPU.
var perLayer = []metricDef{
	{name: "workload.emit_ns_per_access", unit: "ns/access", better: "lower",
		note: "generator Emit; moves setup_s on replay-db2, sweep-em3d and events_per_s on paper-figs"},
	{name: "coherence.classify_ns_per_access", unit: "ns/access", better: "lower",
		note: "coherence.Engine.RunSource over collected accesses; moves setup_s on replay-db2, sweep-em3d and events_per_s on paper-figs"},
	{name: "coherence.events_per_access", unit: "events/access", better: "lower",
		note: "classified events per access; simulated, repeats exactly"},
	{name: "stream.encode_ns_per_event", unit: "ns/event", better: "lower",
		note: "stream.Writer to a discarding sink; moves setup_s on replay-db2, sweep-em3d; not paper-figs"},
	{name: "stream.bytes_per_event", unit: "B/event", better: "lower",
		note: "encoded bytes per event; moves setup_s on replay-db2, sweep-em3d"},
	{name: "stream.decode_ns_per_event", unit: "ns/event", better: "lower",
		note: "drain stream.OpenFile; moves events_per_s on replay-db2 by at most its share; not paper-figs"},
	{name: "stream.decode_mmap_ns_per_event", unit: "ns/event", better: "lower",
		note: "OpenFileParallel, 1 worker, mmap, NextChunkSoA; same as decode"},
	{name: "stream.decode_share_pct", unit: "%", better: "lower",
		note: "serial decode / op CPU; no decode tuning until it reaches 10% on replay-db2"},
	{name: "pipeline.broadcast_ns_per_event", unit: "ns/event", better: "lower",
		note: "pipeline.Config{}.Run to the op's number of drain-only consumers; moves sweep-em3d more than replay-db2"},
	{name: "pipeline.broadcast_share_pct", unit: "%", better: "lower",
		note: "broadcast / op CPU"},
	{name: "pipeline.producer_stall_frac", unit: "frac", better: "lower",
		note: "producer backpressure stall / pipeline wall, from tsm.Instrumentation{Metrics} of one op"},
	{name: "pipeline.consumer_stall_frac", unit: "frac", better: "lower",
		note: "consumer chunk-wait stall / consumer time, from tsm.Instrumentation{Metrics} of one op"},
	{name: "tse.coverage_ns_per_event", unit: "ns/event", better: "lower",
		note: "analysis.NewTSEConsumer alone; moves events_per_s, cpu_s_per_mevent, alloc_bytes_per_event on replay-db2, sweep-em3d"},
	{name: "tse.alloc_bytes_per_event", unit: "B/event", better: "lower",
		note: "heap bytes of the coverage TSE alone; moves alloc_bytes_per_event on replay-db2, sweep-em3d"},
	{name: "tse.share_pct", unit: "%", better: "lower",
		note: "coverage TSE (sweep-em3d: its six cells) / op CPU"},
	{name: "tse.new_system_us", unit: "us", better: "lower",
		note: "tse.NewSystem at 16 nodes; moves alloc_bytes_per_event, peak_rss_mb, events_per_s on paper-figs, replay-db2; not sweep-em3d"},
	{name: "tse.new_system_us.n64", unit: "us", better: "lower",
		note: "tse.NewSystem at 64 nodes; as tse.new_system_us"},
	{name: "timing.base_ns_per_event", unit: "ns/event", better: "lower",
		note: "timing.SimulateSource, baseline; moves replay-db2 only, paper-figs through fig14"},
	{name: "timing.tse_ns_per_event", unit: "ns/event", better: "lower",
		note: "timing.SimulateSource with TSE; moves replay-db2 only, paper-figs through fig14"},
	{name: "timing.share_pct", unit: "%", better: "lower",
		note: "both timing models / op CPU"},
	{name: "prefetch.stride_ns_per_event", unit: "ns/event", better: "lower",
		note: "analysis.EvaluateModel with the stride prefetcher; moves paper-figs only"},
	{name: "prefetch.ghb_gdc_ns_per_event", unit: "ns/event", better: "lower",
		note: "analysis.EvaluateModel with GHB G/DC; moves paper-figs only"},
	{name: "prefetch.ghb_gac_ns_per_event", unit: "ns/event", better: "lower",
		note: "analysis.EvaluateModel with GHB G/AC; moves paper-figs only"},
	{name: "analysis.sweep_cell_ns_per_event", unit: "ns/event", better: "lower",
		note: "mean over the lookahead sweep's cells of one cell run alone; moves sweep-em3d"},
	{name: "experiments.generate_s", unit: "s", better: "lower",
		note: "Workspace.Prefetch; moves paper-figs"},
	{name: "experiments.fig12_s", unit: "s", better: "lower",
		note: "fig12 alone on a prefetched workspace; moves paper-figs"},
	{name: "experiments.fig14_s", unit: "s", better: "lower",
		note: "fig14 alone on a prefetched workspace; moves paper-figs"},
	{name: "experiments.sensitivity_s", unit: "s", better: "lower",
		note: "sensitivity alone on a prefetched workspace; moves paper-figs"},
	{name: "tse.coverage_frac", unit: "frac", better: "higher",
		note: "simulated: covered / consumptions of the coverage TSE; a speed-only change leaves it identical"},
	{name: "tse.discard_frac", unit: "frac", better: "lower",
		note: "simulated: discards / consumptions; a speed-only change leaves it identical"},
	{name: "timing.speedup", unit: "x", better: "higher",
		note: "simulated: TSE over baseline timing (mean over inputs); a speed-only change leaves it identical"},
	{name: "tse.consumptions", unit: "count", better: "higher",
		note: "simulated: consumptions the coverage TSE saw; a speed-only change leaves it identical"},
	{name: "tsm.trace_overhead_pct", unit: "%", better: "lower",
		note: "CPU of an op with tsm.Instrumentation{Metrics} against the untraced op"},
	{name: "tsm.op_cpu_ns_per_event", unit: "ns/event", better: "lower",
		note: "CPU of one untraced op per input event: the base of every share"},
	{name: "tsm.layer_sum_ns_per_event", unit: "ns/event", better: "lower",
		note: "sum of the op's layers alone (files: decode+broadcast+TSE+timing; paper-figs: generate+experiments)"},
	{name: "tsm.layer_residual_pct", unit: "%", better: "lower",
		note: "op CPU minus the layer sum, as % of op CPU: an unmeasured layer shows here"},
}
