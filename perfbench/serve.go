package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// clients is the closed loop's client count: schedulers block on each
// answer, so each client sends its next request only when the previous
// one has completed.
const clients = 2

// defaultSampleEvery is the share (one in sampleEvery ops) of serve-*
// ops whose response bodies are checked byte for byte after the run.
// Every status is checked.
const defaultSampleEvery = 8

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median.
const setupRepeats = 60

// served is one checked request with the SHA-256 digest of its body:
// retaining thousands of bodies would grow the live heap the fleet's
// garbage collector paces itself by.
type served struct {
	req    request
	digest [sha256.Size]byte
}

// clientLog is what one closed-loop client saw.
type clientLog struct {
	latUS     []float64
	startNS   []int64 // each op's start, in Unix nanoseconds
	attempted int
	failed    int
	problems  []string
	sampled   [][]served // one entry per sampled op
}

// add appends another log's outcome to l.
func (l *clientLog) add(o *clientLog) {
	l.latUS = append(l.latUS, o.latUS...)
	l.startNS = append(l.startNS, o.startNS...)
	l.attempted += o.attempted
	l.failed += o.failed
	l.problems = append(l.problems, o.problems...)
	l.sampled = append(l.sampled, o.sampled...)
}

// record records one op that started at t0 and took lat.
func (l *clientLog) record(t0 time.Time, lat time.Duration) {
	l.latUS = append(l.latUS, float64(lat.Nanoseconds())/1e3)
	l.startNS = append(l.startNS, t0.UnixNano())
	l.attempted++
}

// fail counts one failed op and notes why.
func (l *clientLog) fail(format string, args ...any) {
	l.failed++
	l.note(format, args...)
}

// note keeps the first few reasons ops failed.
func (l *clientLog) note(format string, args ...any) {
	if len(l.problems) < 5 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// serveRun is one serve-* workload run: a deployment, an oracle, the
// clients' request streams and their samplers.
type serveRun struct {
	workload string
	dep      *deployment
	ref      *reference
	streams  []*stream
	samplers []*rand.Rand
	// sampleEvery is the body-check share; tests check every op.
	sampleEvery int
	setupS      float64
}

// setupServe deploys the fleet and warms the catalog setupRepeats
// times, and keeps the last deployment. The oracle is built outside the
// timed set-up.
// wrap is passed to deploy.
func setupServe(workload string, seed int64, wrap func(int, http.Handler) http.Handler) (*serveRun, error) {
	var times []float64
	var dep *deployment
	for i := 0; i < setupRepeats; i++ {
		if dep != nil {
			dep.close()
		}
		t0 := time.Now()
		var err error
		if dep, err = deploy(clients, wrap); err != nil {
			return nil, err
		}
		if err := warm(dep.client, dep.url); err != nil {
			dep.close()
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r := &serveRun{
		workload:    workload,
		dep:         dep,
		ref:         newReference(workload == workloadHit),
		sampleEvery: defaultSampleEvery,
		setupS:      medianOf(times),
	}
	for c := 0; c < clients; c++ {
		r.streams = append(r.streams, newStream(workload, seed, c))
		r.samplers = append(r.samplers, rand.New(rand.NewSource(seed*31+int64(c)+1)))
	}
	return r, nil
}

// warm primes a server with every catalog scheme under every model:
// each replica's worker builds its per-model sessions, and on serve-hit
// every timed request becomes a cache hit.
func warm(client *http.Client, base string) error {
	var buf bytes.Buffer
	for _, name := range catalogSchemes {
		for _, model := range catalogModels {
			path := fmt.Sprintf("/v1/predict?name=%s&model=%s", name, model)
			status, err := do(client, base, request{Method: http.MethodGet, Path: path}, &buf)
			if err != nil {
				return fmt.Errorf("warming %s: %w", path, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("warming %s: status %d", path, status)
			}
		}
	}
	return nil
}

// do issues one request and reads the whole response into buf.
func do(client *http.Client, base string, req request, buf *bytes.Buffer) (int, error) {
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hreq, err := http.NewRequest(req.Method, base+req.Path, body)
	if err != nil {
		return 0, err
	}
	if req.Body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("reading %s %s: %w", req.Method, req.Path, err)
	}
	return resp.StatusCode, nil
}

// window is the outcome of one timed window.
type window struct {
	log    clientLog
	start  time.Time
	length time.Duration // as planned; the last ops run past it
	// cpuTimed marks op latencies measured in thread CPU time; the
	// throughput is then ops per second of that time.
	cpuTimed bool
	// cpuMarks, when set, holds the process CPU clock at the start of
	// the window and at the end of each slice; the throughput is then
	// ops per second of the CPU time the whole process ran.
	cpuMarks []time.Duration
	allocKB  float64 // KiB allocated by the whole process
}

// run drives the closed loop for d. tracers, when non-nil, decompose
// every request into its layer calls after it completes (one tracer per
// client).
func (r *serveRun) run(d time.Duration, tracers []*clientTracer) window {
	logs := make([]*clientLog, clients)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := window{start: time.Now(), length: d}
	until := w.start.Add(d)
	marks := make(chan []time.Duration)
	go func() { marks <- sliceCPU(w.start, d) }()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		logs[c] = &clientLog{}
		var tr *clientTracer
		if tracers != nil {
			tr = tracers[c]
		}
		wg.Add(1)
		go func(c int, tr *clientTracer) {
			defer wg.Done()
			r.client(c, until, tr, logs[c])
		}(c, tr)
	}
	wg.Wait()
	w.cpuMarks = <-marks
	runtime.ReadMemStats(&after)
	w.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	for _, l := range logs {
		w.log.add(l)
	}
	return w
}

// client is one closed-loop client: it sends the next op of its stream
// only after the previous op has completed. An op is one deck entry: one
// HTTP request, or the four requests of a cluster lifecycle. Its latency
// is the sum of its requests' round trips, so the client's own checks
// and tracing between them do not count; it fails if any request does.
func (r *serveRun) client(c int, until time.Time, tr *clientTracer, log *clientLog) {
	var buf bytes.Buffer
	st, sampler := r.streams[c], r.samplers[c]
	for time.Now().Before(until) {
		reqs := st.next()
		sample := sampler.Intn(r.sampleEvery) == 0
		var kept []served
		ok := true
		start := time.Now()
		var opLat time.Duration
		for _, req := range reqs {
			t0 := time.Now()
			status, err := do(r.dep.client, r.dep.url, req, &buf)
			lat := time.Since(t0)
			opLat += lat
			switch {
			case err != nil:
				log.note("%s %s: %v", req.Method, req.Path, err)
				ok = false
				continue
			case status != req.Status:
				log.note("%s %s: status %d, want %d: %s", req.Method, req.Path, status, req.Status, firstLine(buf.Bytes()))
				ok = false
				continue
			}
			if sample {
				kept = append(kept, served{req: req, digest: sha256.Sum256(buf.Bytes())})
			}
			if tr != nil {
				if err := tr.after(req, lat); err != nil {
					log.note("tracing %s %s: %v", req.Method, req.Path, err)
					ok = false
				}
			}
		}
		log.record(start, opLat)
		if !ok {
			log.failed++
		}
		// A lifecycle with a failed step cannot be replayed against the
		// oracle; its failure is already counted.
		if sample && ok {
			log.sampled = append(log.sampled, kept)
		}
	}
}

// verify checks the sampled responses byte for byte against the oracle
// and counts each op with a mismatching request as failed.
func (r *serveRun) verify(log *clientLog) {
	for _, op := range log.sampled {
		if !r.matches(op, log) {
			log.failed++
		}
	}
}

// matches compares one sampled op's responses with the oracle's and
// notes every mismatch.
func (r *serveRun) matches(op []served, log *clientLog) bool {
	ok := true
	if op[0].req.Class == classClusterCreate {
		reqs := make([]request, len(op))
		for i, s := range op {
			reqs[i] = s.req
		}
		for i, rec := range r.ref.replayCluster(reqs) {
			if rec.Code != op[i].req.Status || sha256.Sum256(rec.Body.Bytes()) != op[i].digest {
				log.note("%s %s: body differs from the in-process answer, which starts %q",
					op[i].req.Method, op[i].req.Path, firstLine(rec.Body.Bytes()))
				ok = false
			}
		}
		return ok
	}
	for _, s := range op {
		want, err := r.ref.expectPredict(s.req)
		if err != nil {
			log.note("%s %s: oracle: %v", s.req.Method, s.req.Path, err)
			ok = false
			continue
		}
		if sha256.Sum256(want) != s.digest {
			log.note("%s %s: body differs from the in-process answer, which starts %q", s.req.Method, s.req.Path, firstLine(want))
			ok = false
		}
	}
	return ok
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
