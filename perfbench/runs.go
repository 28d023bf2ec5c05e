package main

import (
	"fmt"
	"testing"
	"time"

	"bwshare/internal/core"
	"bwshare/internal/gateway"
	"bwshare/internal/stats"
)

// Workload self-checks: a run fails when its workload stops stressing
// the layer it exists for.
const (
	minHitRatio  = 0.99 // serve-hit: every timed prediction is a cache hit
	maxMissRatio = 0.01 // serve-miss: every prediction simulates
	maxHitTimes  = 0.01 // serve-hit: Session.Times calls per op
)

func serveUntraced(workload string, seed int64, d time.Duration) (outcome, error) {
	r, err := setupServe(workload, seed, nil)
	if err != nil {
		return outcome{}, err
	}
	defer r.dep.close()
	h0, m0 := r.dep.cacheCounts()
	w := r.run(d, nil)
	h1, m1 := r.dep.cacheCounts()
	r.verify(&w.log)
	out := outcome{log: w.log, values: map[string]float64{
		"setup_s":      r.setupS,
		"pred_err_pct": stats.Mean(r.ref.predErrs),
	}}
	latencyValues(w, out.values)
	out.problems = checkHitRatio(workload, ratio(h1-h0, m1-m0))
	return out, nil
}

// serveTraced runs the first half of the window untraced and the second
// half traced; the difference of their median latencies is the tracing
// overhead.
func serveTraced(workload string, seed int64, d time.Duration) (outcome, error) {
	r, err := setupServe(workload, seed, nil)
	if err != nil {
		return outcome{}, err
	}
	defer r.dep.close()
	t, err := newServeTracer(r.dep.replicaWorkers)
	if err != nil {
		return outcome{}, err
	}
	defer t.close()
	h0, m0 := r.dep.cacheCounts()
	plain := r.run(d/2, nil)
	tracers := []*clientTracer{t.forClient(), t.forClient()}
	g0 := r.dep.gw.Snapshot()
	traced := r.run(d-d/2, tracers)
	g1 := r.dep.gw.Snapshot()
	h1, m1 := r.dep.cacheCounts()

	sp := spans{}
	for _, tr := range tracers {
		sp.merge(tr.sp)
	}
	ops := traced.log.attempted
	out := outcome{log: plain.log, values: layerValues(sp, ops)}
	out.log.add(&traced.log)
	r.verify(&out.log)
	for name, fs := range t.allocs {
		out.values[name+"_allocs"] = allocsPerCall(fs)
	}
	out.values["server.wait_us"] = sp.get("server.wait").median()
	hitRatio := ratio(h1-h0, m1-m0)
	out.values["server.cache_hit_ratio"] = hitRatio
	gatewayValues(g0, g1, ops, out.values)
	out.values["bench.trace_overhead_pct"] = overheadPct(plain.log.latUS, traced.log.latUS)

	out.problems = checkHitRatio(workload, hitRatio)
	if workload == workloadHit && out.values["predict.times_calls"] > maxHitTimes {
		out.problems = append(out.problems, fmt.Sprintf("serve-hit ran Session.Times %.3f times per op, want <= %g: requests are missing the cache",
			out.values["predict.times_calls"], maxHitTimes))
	}
	return out, nil
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func checkHitRatio(workload string, r float64) []string {
	switch {
	case workload == workloadHit && r < minHitRatio:
		return []string{fmt.Sprintf("serve-hit cache hit ratio %.4f, want >= %g", r, minHitRatio)}
	case workload == workloadMiss && r > maxMissRatio:
		return []string{fmt.Sprintf("serve-miss cache hit ratio %.4f, want <= %g", r, maxMissRatio)}
	}
	return nil
}

// gatewayValues derives the gateway's per-layer metrics from two
// snapshots around the traced window.
func gatewayValues(g0, g1 gateway.Stats, ops int, values map[string]float64) {
	per := func(n int64) float64 { return float64(n) / float64(max(ops, 1)) }
	values["gateway.retries"] = per(g1.Retries - g0.Retries)
	values["gateway.rejects"] = per(g1.Rejected - g0.Rejected)
	lo, hi := int64(-1), int64(0)
	for i := range g1.Upstreams {
		n := g1.Upstreams[i].Requests - g0.Upstreams[i].Requests
		hi = max(hi, n)
		if lo < 0 || n < lo {
			lo = n
		}
	}
	values["gateway.upstream_skew"] = float64(hi) / float64(max(lo, 1))
}

// overheadPct compares the traced window's median latency with the
// untraced window's.
func overheadPct(plain, traced []float64) float64 {
	p := medianOf(plain)
	if p == 0 {
		return 0
	}
	return (medianOf(traced) - p) / p * 100
}

// allocsPerCall is the median allocation count of the kept calls, each
// counted alone with nothing else running.
func allocsPerCall(fs []func()) float64 {
	counts := make([]float64, len(fs))
	for i, f := range fs {
		counts[i] = testing.AllocsPerRun(5, f)
	}
	return medianOf(counts)
}

func replayUntraced(seed int64, d time.Duration) (outcome, error) {
	r, err := setupReplay(seed)
	if err != nil {
		return outcome{}, err
	}
	op := 0
	w := r.run(d, r.engines, &op)
	out := outcome{log: w.log, values: map[string]float64{
		"setup_s":      r.setupS,
		"pred_err_pct": r.predErr,
	}}
	latencyValues(w, out.values)
	return out, nil
}

// replayTraced runs the first half of the window untraced and the
// second half with timing wrappers around the engines. trace-replay has
// no HTTP layer by construction: it calls replay.Run on the engines
// directly. Its self-check is that both engine kinds are driven.
func replayTraced(seed int64, d time.Duration) (outcome, error) {
	r, err := setupReplay(seed)
	if err != nil {
		return outcome{}, err
	}
	op := 0
	plain := r.run(d/2, r.engines, &op)
	sp := spans{}
	wrapped := timedEngines(r.engines, sp)
	engines := make([]core.Engine, len(wrapped))
	for i, e := range wrapped {
		engines[i] = e
	}
	traced := r.run(d-d/2, engines, &op)

	out := outcome{log: plain.log, values: layerValues(sp, traced.log.attempted)}
	out.log.add(&traced.log)
	out.values["bench.trace_overhead_pct"] = overheadPct(plain.log.latUS, traced.log.latUS)
	for _, calls := range []string{"netsim.advance_calls", "predict.advance_calls"} {
		if out.values[calls] == 0 {
			out.problems = append(out.problems, "trace-replay made no "+calls)
		}
	}
	return out, nil
}
