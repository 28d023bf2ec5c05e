package main

import (
	"fmt"
	"strings"
)

// metricDef names one reported metric. The lists below are the
// benchmark's contract with BENCHMARK.json (a test keeps them equal).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees, from the untraced
// run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"alloc_kb_per_op", "KiB/op", "lower"},
	{"pred_err_pct", "%", "lower"},
}

// spanNames are the timed layer calls. Each yields <name>_us, its median
// duration per call, and <name>_calls, its calls per op.
var spanNames = []string{
	"gateway.hop",
	"server.roundtrip",
	"api.decode",
	"api.resolve",
	"schemelang.hash",
	"server.predict_hit",
	"server.predict_miss",
	"predict.session_new",
	"predict.times",
	"predict.static",
	"predict.advance",
	"netsim.advance",
	"netsim.startflow",
	"replay.self",
	"report.build",
	"report.encode",
	"report.text",
	"fleet.create",
	"fleet.addjob",
	"fleet.placements",
	"fleet.delete",
}

// allocCalls are the calls whose allocations per call are counted in a
// quiet pass after the traced window.
var allocCalls = []string{"api.resolve", "server.predict_hit", "predict.times", "report.encode"}

// penaltySpan is the span of one model's Penalties call.
func penaltySpan(model string) string { return "model.penalties." + model }

// spanMetricNames returns the _us and _calls metric names of a span.
// The per-model penalty spans keep the model as the last component.
func spanMetricNames(span string) (us, calls string) {
	if m, ok := strings.CutPrefix(span, "model.penalties."); ok {
		return "model.penalties_us." + m, "model.penalties_calls." + m
	}
	return span + "_us", span + "_calls"
}

// allSpans is spanNames plus one Penalties span per model.
func allSpans() []string {
	out := append([]string(nil), spanNames...)
	for _, m := range catalogModels {
		out = append(out, penaltySpan(m))
	}
	return out
}

// perLayer lists every per-layer metric of the traced run.
func perLayer() []metricDef {
	var out []metricDef
	for _, s := range allSpans() {
		us, calls := spanMetricNames(s)
		out = append(out, metricDef{us, "us", "lower"}, metricDef{calls, "calls/op", "lower"})
	}
	for _, a := range allocCalls {
		out = append(out, metricDef{a + "_allocs", "allocs/call", "lower"})
	}
	return append(out,
		metricDef{"server.wait_us", "us", "lower"},
		metricDef{"server.cache_hit_ratio", "ratio", "higher"},
		metricDef{"gateway.upstream_skew", "ratio", "lower"},
		metricDef{"gateway.retries", "1/op", "lower"},
		metricDef{"gateway.rejects", "1/op", "lower"},
		metricDef{"bench.trace_overhead_pct", "%", "lower"},
	)
}

// layerValues starts the per-layer metrics of a traced window: every
// metric 0, then each span's median duration and calls per op. A layer
// the workload does not call stays 0.
func layerValues(sp spans, ops int) map[string]float64 {
	values := make(map[string]float64)
	for _, d := range perLayer() {
		values[d.Name] = 0
	}
	for _, name := range allSpans() {
		s, ok := sp[name]
		if !ok {
			continue
		}
		us, calls := spanMetricNames(name)
		values[us] = s.median()
		values[calls] = float64(s.calls()) / float64(max(ops, 1))
	}
	return values
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks the listed metrics out of values; a missing one is a
// bug in the benchmark.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
