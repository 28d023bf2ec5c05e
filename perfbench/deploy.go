package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"bwshare/internal/gateway"
	"bwshare/internal/server"
)

// replicas is the worker fleet size behind the gateway. Each replica
// gets an equal share of the simulator workers, so the fleet as a whole
// runs nproc simulations at once.
const replicas = 2

// deployment is one bwgate in front of bwserved replicas, all in this
// process behind real loopback HTTP listeners.
type deployment struct {
	workers        []*server.Server
	gw             *gateway.Gateway
	url            string // the gateway's base URL
	client         *http.Client
	closers        []func()
	replicaWorkers int
}

func workersPerReplica() int { return max(1, runtime.NumCPU()/replicas) }

// deploy starts the replicas and the gateway. Upstream names are fixed,
// so the rendezvous split of the keyspace is the same every run. wrap,
// when non-nil, wraps each replica's handler (tests inject faults).
func deploy(clients int, wrap func(replica int, h http.Handler) http.Handler) (*deployment, error) {
	f := &deployment{replicaWorkers: workersPerReplica()}
	ups := make([]gateway.Upstream, replicas)
	for i := range ups {
		s := server.New(server.Config{Workers: f.replicaWorkers})
		h := s.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		f.workers = append(f.workers, s)
		f.closers = append(f.closers, ts.Close)
		ups[i] = gateway.Upstream{Name: fmt.Sprintf("w%d", i), URL: ts.URL}
	}
	gw, err := gateway.New(gateway.Config{Upstreams: ups, HealthInterval: -1})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("starting gateway: %w", err)
	}
	f.gw = gw
	ts := httptest.NewServer(gw.Handler())
	f.closers = append(f.closers, gw.Close, ts.Close)
	f.url = ts.URL
	f.client = newClient(clients)
	return f, nil
}

// newClient returns an HTTP client that keeps one connection per
// closed-loop client alive.
func newClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
		},
	}
}

// close stops the gateway and replicas in reverse start order and waits
// for their connections to drain.
func (f *deployment) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}

// cacheCounts sums the replicas' cache hit and miss counters.
func (f *deployment) cacheCounts() (hits, misses int64) {
	for _, s := range f.workers {
		st := s.Snapshot()
		hits += st.CacheHits
		misses += st.CacheMisses
	}
	return hits, misses
}
