package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"

	"bwshare/internal/api"
	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/measure"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/infiniband"
	"bwshare/internal/netsim/myrinet"
	"bwshare/internal/report"
	"bwshare/internal/schemelang"
	"bwshare/internal/schemes"
	"bwshare/internal/server"
	"bwshare/internal/topology"
)

// reference computes the answer a correct server gives to a request,
// directly in process: Server.Predict plus the report renderers for
// predictions, and a fresh worker's handler for the cluster lifecycle.
// It is the oracle the sampled fleet responses are compared against
// byte for byte.
type reference struct {
	srv  *server.Server
	memo map[string]memoized // repeatable (cache-hit) requests
	// predErrs holds one mean per-communication prediction error per
	// checked prediction, against the model's substrate.
	predErrs   []float64
	substrates map[string]core.Engine
	measured   map[string][]float64
}

func newReference(warmCatalog bool) *reference {
	r := &reference{
		srv:        server.New(server.Config{Workers: 1}),
		memo:       make(map[string]memoized),
		substrates: make(map[string]core.Engine),
		measured:   make(map[string][]float64),
	}
	if warmCatalog {
		// The fleet answers every timed catalog request from its cache,
		// so the oracle must render the same "cached": true documents.
		for _, name := range catalogSchemes {
			for _, model := range catalogModels {
				if _, err := r.predict(api.PredictRequest{Name: name, Model: model}); err != nil {
					panic("perfbench: warming the reference: " + err.Error())
				}
			}
		}
	}
	return r
}

// memoized is the checked answer to a repeatable request.
type memoized struct {
	body     []byte
	predErrs []float64
}

// prediction is one predicted scheme with what is needed to render it.
type prediction struct {
	req   api.PredictRequest
	g     *graph.Graph
	topo  topology.Spec
	sched fault.Schedule
	res   server.Result
	model string // display name of the model
}

func (r *reference) predict(pr api.PredictRequest) (prediction, error) {
	g, topo, sched, err := api.ResolveGraph(pr)
	if err != nil {
		return prediction{}, err
	}
	model := pr.Model
	if model == "" {
		model = api.DefaultModel
	}
	res, err := r.srv.Predict(context.Background(), g, model, pr.Static, pr.RefRate, topo, sched)
	if err != nil {
		return prediction{}, err
	}
	return prediction{req: pr, g: g, topo: topo, sched: sched, res: res, model: r.srv.Model(res.Model).Name()}, nil
}

// document builds the JSON document of one prediction, as the worker
// tier renders it.
func (p prediction) document() report.Prediction {
	d := report.BuildPrediction(p.model, !p.req.Static, p.res.RefRate, p.g, p.res.Penalties, p.res.Times)
	d.Cached = p.res.Cached
	if !p.topo.Trivial() {
		d.Topology = p.topo.String()
		d.Links = report.BuildLinkUtil(p.topo, p.g, p.res.Times, p.res.RefRate)
	}
	return d
}

// text renders one prediction in the bwpredict text format.
func (p prediction) text() []byte {
	var b bytes.Buffer
	report.PredictionText(&b, p.model, !p.req.Static, p.res.RefRate, p.g, p.res.Penalties, p.res.Times, nil)
	if !p.topo.Trivial() {
		report.LinkUtilText(&b, p.topo, report.BuildLinkUtil(p.topo, p.g, p.res.Times, p.res.RefRate))
	}
	return b.Bytes()
}

// encodeJSON renders v exactly as api.WriteJSON does.
func encodeJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// expectPredict returns the body a correct server answers to a predict
// or batch request, and records the prediction error of every item.
func (r *reference) expectPredict(req request) ([]byte, error) {
	key := req.Method + " " + req.Path + " " + string(req.Body)
	repeatable := strings.HasPrefix(req.Class, "hit-")
	if m, ok := r.memo[key]; ok && repeatable {
		r.predErrs = append(r.predErrs, m.predErrs...)
		return m.body, nil
	}
	items, text, err := decodeRequest(req)
	if err != nil {
		return nil, fmt.Errorf("decoding %s %s: %w", req.Method, req.Path, err)
	}
	preds := make([]prediction, len(items))
	errs := make([]float64, len(items))
	for i, pr := range items {
		if preds[i], err = r.predict(pr); err != nil {
			return nil, fmt.Errorf("reference prediction: %w", err)
		}
		if errs[i], err = r.predErr(preds[i]); err != nil {
			return nil, err
		}
	}
	r.predErrs = append(r.predErrs, errs...)
	var body []byte
	switch {
	case text:
		body = preds[0].text()
	case req.Class == classHitBatch:
		results := make([]any, len(preds))
		for i, p := range preds {
			results[i] = p.document()
		}
		body, err = encodeJSON(map[string]any{"results": results})
	default:
		body, err = encodeJSON(preds[0].document())
	}
	if err != nil {
		return nil, err
	}
	if repeatable {
		r.memo[key] = memoized{body: body, predErrs: errs}
	}
	return body, nil
}

// predErr is the mean |tp - tm| / tm over the scheme's communications,
// in percent: the served prediction against the model's substrate on
// the same fabric and fault schedule.
func (r *reference) predErr(p prediction) (float64, error) {
	key := fmt.Sprintf("%s %x %s %x", p.res.Model, schemelang.Hash(p.g), p.topo, p.sched.Hash())
	tm, ok := r.measured[key]
	if !ok {
		e, err := r.substrate(p.res.Model, p.topo, p.sched)
		if err != nil {
			return 0, err
		}
		tm = measure.Run(e, p.g).Times
		r.measured[key] = tm
	}
	sum := 0.0
	for i, t := range p.res.Times {
		sum += math.Abs(t-tm[i]) / tm[i] * 100
	}
	return sum / float64(len(tm)), nil
}

// substrate returns the "measured" engine of a model: the baselines run
// against GigE, like the paper's Kim & Lee comparison.
func (r *reference) substrate(model string, topo topology.Spec, sched fault.Schedule) (core.Engine, error) {
	if topo.Trivial() && sched.Empty() {
		if e := r.substrates[model]; e != nil {
			return e, nil
		}
	}
	var e core.Engine
	switch model {
	case "infiniband":
		cfg := infiniband.DefaultConfig()
		cfg.Topo, cfg.Faults = topo, sched
		e = infiniband.New(cfg)
	case "myrinet":
		if !topo.Trivial() || !sched.Empty() {
			return nil, fmt.Errorf("no Myrinet substrate for fabric %s", topo)
		}
		e = myrinet.New(myrinet.DefaultConfig())
	default:
		cfg := gige.DefaultConfig()
		cfg.Topo, cfg.Faults = topo, sched
		e = gige.New(cfg)
	}
	if topo.Trivial() && sched.Empty() {
		r.substrates[model] = e
	}
	return e, nil
}

// replayCluster issues a cluster lifecycle against a worker's handler in
// process and returns each answer.
func (r *reference) replayCluster(reqs []request) []*httptest.ResponseRecorder {
	out := make([]*httptest.ResponseRecorder, len(reqs))
	for i, req := range reqs {
		hr := httptest.NewRequest(req.Method, req.Path, bytes.NewReader(req.Body))
		if req.Body != nil {
			hr.Header.Set("Content-Type", "application/json")
		}
		out[i] = httptest.NewRecorder()
		r.srv.Handler().ServeHTTP(out[i], hr)
	}
	return out
}

// catalogSize is the number of communications of a catalog scheme.
func catalogSize(name string) int {
	g, ok := schemes.Named(name)
	if !ok {
		panic("perfbench: unknown catalog scheme " + name)
	}
	return g.Len()
}
