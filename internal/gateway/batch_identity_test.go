package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bwshare/internal/api"
	"bwshare/internal/server"
)

// TestBatchSplitMergeByteIdentical drives the batch decomposition path
// against real workers: a batch whose items provably home on different
// replicas is split into per-replica sub-batches and reassembled, and
// the merged document must be byte-identical to a single worker
// answering the whole batch — first cold (every item a miss), then warm
// (every item a hit on its home), with an embedded per-item error along
// for the ride.
func TestBatchSplitMergeByteIdentical(t *testing.T) {
	workerCfg := server.Config{Workers: 2, CacheSize: 256}
	a := httptest.NewServer(server.New(workerCfg).Handler())
	defer a.Close()
	b := httptest.NewServer(server.New(workerCfg).Handler())
	defer b.Close()
	direct := httptest.NewServer(server.New(workerCfg).Handler())
	defer direct.Close()
	g, err := New(Config{
		Upstreams: []Upstream{
			{Name: "a", URL: a.URL},
			{Name: "b", URL: b.URL},
		},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// Candidate items spanning schemes and models; keep adding until the
	// batch provably covers both replicas (in-package access to the shard
	// function makes the split a checked precondition, not a hope).
	candidates := []string{
		`{"name":"s4"}`,
		`{"name":"s6"}`,
		`{"name":"fig4","model":"infiniband"}`,
		`{"name":"mk2","model":"myrinet"}`,
		`{"name":"fig5","model":"myrinet"}`,
		`{"model":"gige","comms":[{"src":0,"dst":1,"volume":3000001}]}`,
		`{"model":"no-such-model","name":"s4"}`, // embedded per-item 400
	}
	homes := map[string]bool{}
	for _, c := range candidates {
		var req api.PredictRequest
		if err := json.Unmarshal([]byte(c), &req); err != nil {
			t.Fatalf("candidate %s: %v", c, err)
		}
		homes[g.healthyOrder(itemShardKey(req))[0].name] = true
	}
	if len(homes) < 2 {
		t.Fatalf("candidate items all home on one replica (%v); extend the candidate pool", homes)
	}
	body := `{"requests":[` + strings.Join(candidates, ",") + `]}`

	for _, pass := range []string{"cold", "warm"} {
		viaGateway := postRaw(t, gw.URL+"/v1/predict/batch", body)
		viaDirect := postRaw(t, direct.URL+"/v1/predict/batch", body)
		if viaGateway.status != viaDirect.status {
			t.Fatalf("%s pass: status %d via gateway, %d direct", pass, viaGateway.status, viaDirect.status)
		}
		if !bytes.Equal(viaGateway.body, viaDirect.body) {
			t.Fatalf("%s pass: merged batch differs from a single worker's answer\ngateway:\n%s\ndirect:\n%s",
				pass, viaGateway.body, viaDirect.body)
		}
		if viaGateway.contentType != viaDirect.contentType {
			t.Errorf("%s pass: Content-Type %q via gateway, %q direct", pass, viaGateway.contentType, viaDirect.contentType)
		}
	}
	if !strings.Contains(string(postRaw(t, gw.URL+"/v1/predict/batch", body).body), `"cached": true`) {
		t.Error("third pass should show cached items — the union cache is not warming")
	}
}

type rawResponse struct {
	status      int
	contentType string
	body        []byte
}

func postRaw(t *testing.T, url, body string) rawResponse {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rawResponse{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: data}
}

// TestUnboundedHostFaultByteIdentical: a host_slow target past the node
// id limit is a 400 from a direct worker, and the gateway relays the
// same status and body, in both request forms and inside a batch.
func TestUnboundedHostFaultByteIdentical(t *testing.T) {
	workerCfg := server.Config{Workers: 1, CacheSize: 16}
	a := httptest.NewServer(server.New(workerCfg).Handler())
	defer a.Close()
	b := httptest.NewServer(server.New(workerCfg).Handler())
	defer b.Close()
	direct := httptest.NewServer(server.New(workerCfg).Handler())
	defer direct.Close()
	g, err := New(Config{
		Upstreams:      []Upstream{{Name: "a", URL: a.URL}, {Name: "b", URL: b.URL}},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	faultsBlock := `{"name":"s4","faults":[{"kind":"host_slow","host":68719476736,"factor":0.5,"at":0.1,"until":0.2}]}`
	header := `{"scheme":"fault: host 68719476736 slow 0.5 at 0.1 until 0.2\na: 0 -> 1\n"}`
	for _, c := range []struct{ path, body string }{
		{"/v1/predict", faultsBlock},
		{"/v1/predict", header},
		{"/v1/predict/batch", `{"requests":[` + faultsBlock + `,{"name":"s4"}]}`},
	} {
		viaGateway := postRaw(t, gw.URL+c.path, c.body)
		viaDirect := postRaw(t, direct.URL+c.path, c.body)
		if c.path == "/v1/predict" && viaDirect.status != http.StatusBadRequest {
			t.Fatalf("%s: direct status %d, want 400: %s", c.body, viaDirect.status, viaDirect.body)
		}
		if viaGateway.status != viaDirect.status || !bytes.Equal(viaGateway.body, viaDirect.body) {
			t.Fatalf("%s: gateway %d %s, direct %d %s", c.body,
				viaGateway.status, viaGateway.body, viaDirect.status, viaDirect.body)
		}
	}
}

// TestFaultHeadersOverLimitByteIdentical: scheme text with one fault:
// header past api.MaxFaultEvents is a 400 from a direct worker, and the
// gateway, which resolves the request itself to pick a shard, relays
// the same status and body, alone and inside a batch.
func TestFaultHeadersOverLimitByteIdentical(t *testing.T) {
	workerCfg := server.Config{Workers: 1, CacheSize: 16}
	a := httptest.NewServer(server.New(workerCfg).Handler())
	defer a.Close()
	b := httptest.NewServer(server.New(workerCfg).Handler())
	defer b.Close()
	direct := httptest.NewServer(server.New(workerCfg).Handler())
	defer direct.Close()
	g, err := New(Config{
		Upstreams:      []Upstream{{Name: "a", URL: a.URL}, {Name: "b", URL: b.URL}},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	var text strings.Builder
	for i := 0; i <= api.MaxFaultEvents; i++ {
		fmt.Fprintf(&text, "fault: host %d slow 0.5 at %g until %g\n", i%2, float64(i)*1e-3, float64(i)*1e-3+5e-4)
	}
	text.WriteString("a: 0 -> 1\n")
	body, err := json.Marshal(map[string]string{"scheme": text.String()})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/predict", string(body)},
		{"/v1/predict/batch", `{"requests":[` + string(body) + `,{"name":"s4"}]}`},
	} {
		viaGateway := postRaw(t, gw.URL+c.path, c.body)
		viaDirect := postRaw(t, direct.URL+c.path, c.body)
		if c.path == "/v1/predict" && viaDirect.status != http.StatusBadRequest {
			t.Fatalf("direct status %d, want 400: %s", viaDirect.status, viaDirect.body)
		}
		if viaGateway.status != viaDirect.status || !bytes.Equal(viaGateway.body, viaDirect.body) {
			t.Fatalf("%s: gateway %d %s, direct %d %s", c.path,
				viaGateway.status, viaGateway.body, viaDirect.status, viaDirect.body)
		}
	}
}
