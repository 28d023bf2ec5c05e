package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"time"

	"bwshare/internal/api"
	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/fleet"
	"bwshare/internal/graph"
	"bwshare/internal/predict"
	"bwshare/internal/report"
	"bwshare/internal/schemelang"
	"bwshare/internal/server"
	"bwshare/internal/topology"
)

// allocKeep is how many inputs per alloc-counted call the traced run
// keeps for the quiet allocation pass.
const allocKeep = 16

// serveTracer holds what the traced serve-* run calls besides the
// deployment: a direct replica reached over loopback without the
// gateway (for the hop and round-trip spans), and an in-process shadow
// worker and cluster manager whose public calls are timed one layer at
// a time. Neither shares state with the deployment, so the deployment's
// cache counters see only the workload.
type serveTracer struct {
	direct    *server.Server
	directURL string
	closers   []func()
	client    *http.Client
	shadow    *server.Server
	clusters  *fleet.Manager

	mu     sync.Mutex
	allocs map[string][]func() // alloc-counted call -> kept inputs
}

// newServeTracer starts the direct replica and warms it and the shadow
// worker with the catalog, as the deployment is warmed.
func newServeTracer(replicaWorkers int) (*serveTracer, error) {
	t := &serveTracer{
		direct:   server.New(server.Config{Workers: replicaWorkers}),
		shadow:   server.New(server.Config{Workers: replicaWorkers}),
		clusters: fleet.NewManager(),
		client:   newClient(clients),
		allocs:   make(map[string][]func()),
	}
	ts := httptest.NewServer(t.direct.Handler())
	t.directURL = ts.URL
	t.closers = append(t.closers, ts.Close)
	if err := warm(t.client, t.directURL); err != nil {
		t.close()
		return nil, err
	}
	for _, name := range catalogSchemes {
		for _, model := range catalogModels {
			g, topo, sched, err := api.ResolveGraph(api.PredictRequest{Name: name})
			if err != nil {
				t.close()
				return nil, err
			}
			if _, err := t.shadow.Predict(context.Background(), g, model, false, 0, topo, sched); err != nil {
				t.close()
				return nil, err
			}
		}
	}
	return t, nil
}

func (t *serveTracer) close() {
	t.client.CloseIdleConnections()
	for _, c := range t.closers {
		c()
	}
}

// keepAlloc records an input of an alloc-counted call, up to allocKeep
// per call.
func (t *serveTracer) keepAlloc(name string, f func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.allocs[name]) < allocKeep {
		t.allocs[name] = append(t.allocs[name], f)
	}
}

// clientTracer is one closed-loop client's view of the tracer: its own
// spans and its own prediction sessions (a session is single-user).
type clientTracer struct {
	t        *serveTracer
	sp       spans
	sessions map[string]*predict.Session
	models   map[string]modelRef
	buf      bytes.Buffer
	// sink and hashSink keep timed pure calls from being optimised away.
	sink     any
	hashSink uint64
}

// modelRef is a registry model with its substrate's reference rate.
type modelRef struct {
	m   core.Model
	ref float64
}

func (c *clientTracer) keep(v any) { c.sink = v }

func (t *serveTracer) forClient() *clientTracer {
	return &clientTracer{t: t, sp: spans{}, sessions: make(map[string]*predict.Session), models: make(map[string]modelRef)}
}

// after traces one completed request: the same request directly to a
// worker over loopback, then its layer calls in process.
func (c *clientTracer) after(req request, viaGateway time.Duration) error {
	t0 := time.Now()
	status, err := do(c.t.client, c.t.directURL, req, &c.buf)
	direct := time.Since(t0)
	if err != nil {
		return fmt.Errorf("direct to a worker: %w", err)
	}
	if status != req.Status {
		return fmt.Errorf("direct to a worker: status %d, want %d", status, req.Status)
	}
	c.sp.get("server.roundtrip").add(direct)
	c.sp.get("gateway.hop").add(viaGateway - direct)
	if strings.HasPrefix(req.Class, "cluster-") {
		return c.clusterOp(req)
	}
	return c.predictOp(req)
}

func (c *clientTracer) predictOp(req request) error {
	var (
		items []api.PredictRequest
		text  bool
		err   error
	)
	c.sp.time("api.decode", func() { items, text, err = decodeRequest(req) })
	if err != nil {
		return err
	}
	docs := make([]any, 0, len(items))
	for _, pr := range items {
		var (
			g     *graph.Graph
			topo  topology.Spec
			sched fault.Schedule
		)
		c.sp.time("api.resolve", func() { g, topo, sched, err = api.ResolveGraph(pr) })
		if err != nil {
			return err
		}
		c.t.keepAlloc("api.resolve", func() { _, _, _, _ = api.ResolveGraph(pr) })
		c.sp.time("schemelang.hash", func() { c.hashSink ^= schemelang.Hash(g) })
		model := api.CanonicalModel(pr.Model)
		predictOnce := func() (server.Result, error) {
			return c.t.shadow.Predict(context.Background(), g, model, pr.Static, pr.RefRate, topo, sched)
		}
		t0 := time.Now()
		res, err := predictOnce()
		took := time.Since(t0)
		if err != nil {
			return err
		}
		if res.Cached {
			c.sp.get("server.predict_hit").add(took)
			c.t.keepAlloc("server.predict_hit", func() { _, _ = predictOnce() })
		} else {
			c.sp.get("server.predict_miss").add(took)
			alone, err := c.simulate(g, res.Model, topo, sched)
			if err != nil {
				return err
			}
			c.sp.get("server.wait").add(took - alone)
		}
		p := prediction{req: pr, g: g, topo: topo, sched: sched, res: res, model: c.t.shadow.Model(res.Model).Name()}
		if text {
			c.sp.time("report.text", func() { c.keep(p.text()) })
			continue
		}
		var doc report.Prediction
		c.sp.time("report.build", func() { doc = p.document() })
		docs = append(docs, doc)
	}
	if text {
		return nil
	}
	var v any = docs[0]
	if req.Class == classHitBatch {
		v = map[string]any{"results": docs}
	}
	c.sp.time("report.encode", func() { _, err = json.MarshalIndent(v, "", "  ") })
	c.t.keepAlloc("report.encode", func() { _, _ = json.MarshalIndent(v, "", "  ") })
	return err
}

// decodeRequest is the worker's decode step: the GET query grammar or
// a JSON body into the api request types. It returns the request's
// predict items and whether the answer is text.
func decodeRequest(req request) ([]api.PredictRequest, bool, error) {
	if req.Method == http.MethodGet {
		u, err := url.Parse(req.Path)
		if err != nil {
			return nil, false, err
		}
		pr, format, err := api.ParsePredictQuery(u.Query())
		return []api.PredictRequest{pr}, format == "text", err
	}
	if req.Path == "/v1/predict/batch" {
		var br api.BatchRequest
		err := json.NewDecoder(bytes.NewReader(req.Body)).Decode(&br)
		return br.Requests, false, err
	}
	var pr api.PredictRequest
	err := json.NewDecoder(bytes.NewReader(req.Body)).Decode(&pr)
	return []api.PredictRequest{pr}, false, err
}

// simulate runs a miss's simulation steps alone, as a worker does: a
// new session for a fabric or fault request (NewSessionWithTopology or
// NewSessionWithFaults), the static penalties, the
// progressive times, and the model's penalties on the request graph.
// It returns the time of the steps the worker's miss path runs.
func (c *clientTracer) simulate(g *graph.Graph, model string, topo topology.Spec, sched fault.Schedule) (time.Duration, error) {
	mr, ok := c.models[model]
	if !ok {
		m, sub, err := predict.LookupModel(model)
		if err != nil {
			return 0, err
		}
		mr = modelRef{m: m, ref: sub.RefRate()}
		c.models[model] = mr
	}
	m := mr.m
	var (
		alone time.Duration
		err   error
	)
	sess := c.sessions[model]
	if !topo.Trivial() || !sched.Empty() {
		t0 := time.Now()
		if sched.Empty() {
			sess = predict.NewSessionWithTopology(m, mr.ref, topo)
		} else {
			sess, err = predict.NewSessionWithFaults(m, mr.ref, topo, sched)
		}
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		c.sp.get("predict.session_new").add(d)
		alone += d
	} else if sess == nil {
		sess = predict.NewSession(m, mr.ref)
		c.sessions[model] = sess
	}
	t0 := time.Now()
	c.keep(sess.StaticPenalties(g))
	d := time.Since(t0)
	c.sp.get("predict.static").add(d)
	alone += d
	t0 = time.Now()
	c.keep(sess.Times(g))
	d = time.Since(t0)
	c.sp.get("predict.times").add(d)
	alone += d
	c.t.keepAlloc("predict.times", func() { c.keep(sess.Times(g)) })
	c.sp.time("model.penalties."+model, func() { c.keep(m.Penalties(g)) })
	return alone, nil
}

// clusterOp runs a cluster request's fleet.Manager call in process.
func (c *clientTracer) clusterOp(req request) error {
	rest := strings.TrimPrefix(req.Path, "/v1/clusters")
	name, _, _ := strings.Cut(strings.TrimPrefix(rest, "/"), "/")
	var err error
	switch req.Class {
	case classClusterCreate:
		var cr api.ClusterRequest
		if err := json.Unmarshal(req.Body, &cr); err != nil {
			return err
		}
		topo, terr := cr.Topology.Spec()
		if terr != nil {
			return terr
		}
		c.sp.time("fleet.create", func() {
			_, err = c.t.clusters.Create(fleet.Spec{Name: cr.Name, Topo: topo, Hosts: cr.Hosts, Model: cr.Model})
		})
	case classClusterJob:
		var jr api.JobRequest
		if err := json.Unmarshal(req.Body, &jr); err != nil {
			return err
		}
		g, _, _, gerr := api.ResolveGraphForm(api.PredictRequest{Comms: jr.Comms})
		if gerr != nil {
			return gerr
		}
		c.sp.time("fleet.addjob", func() { _, err = c.t.clusters.AddJob(name, jr.Name, g, jr.Strategy, jr.Seeds) })
	case classClusterPlace:
		var pr api.PlacementsRequest
		if err := json.Unmarshal(req.Body, &pr); err != nil {
			return err
		}
		g, _, _, gerr := api.ResolveGraphForm(api.PredictRequest{Comms: pr.Comms})
		if gerr != nil {
			return gerr
		}
		c.sp.time("fleet.placements", func() { _, err = c.t.clusters.Placements(name, g, pr.Seeds) })
	case classClusterDelete:
		c.sp.time("fleet.delete", func() { err = c.t.clusters.Delete(name) })
	}
	return err
}
