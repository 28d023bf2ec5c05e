package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"bwshare/internal/loadgen"
)

// TestSameSeedSameStream: a stream is a pure function of (workload,
// seed, client), so a result can be rechecked on the same inputs.
func TestSameSeedSameStream(t *testing.T) {
	for _, w := range []string{workloadHit, workloadMiss} {
		for c := 0; c < clients; c++ {
			a, b := requests(w, 7, c, 500), requests(w, 7, c, 500)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s client %d: same seed gave different streams", w, c)
			}
		}
	}
}

// TestOtherSeedSameShape: a second seed gives a different stream with
// the same class shares and the same scheme-size distribution, so a
// claim can be rechecked on a seed not used while the change was made.
func TestOtherSeedSameShape(t *testing.T) {
	for _, w := range []string{workloadHit, workloadMiss} {
		deck := len(newStream(w, 1, 0).deck)
		ops := 300 * deck // whole deck cycles
		a, b := opsOf(w, 1, ops), opsOf(w, 2, ops)
		if reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seeds 1 and 2 gave the same stream", w)
		}
		if ca, cb := classCounts(a), classCounts(b); !reflect.DeepEqual(ca, cb) {
			t.Errorf("%s: class counts differ between seeds: %v vs %v", w, ca, cb)
		}
		for class := range classCounts(a) {
			sa, sb := sizes(a, class), sizes(b, class)
			// The two-sample KS critical value at significance 0.001.
			limit := 1.95 * math.Sqrt(float64(len(sa)+len(sb))/float64(len(sa)*len(sb)))
			if d := ksDistance(sa, sb); d > limit {
				t.Errorf("%s %s: scheme-size distributions differ between seeds (KS distance %.3f > %.3f)", w, class, d, limit)
			}
		}
	}
}

func opsOf(w string, seed int64, n int) []request {
	s := newStream(w, seed, 0)
	var out []request
	for i := 0; i < n; i++ {
		out = append(out, s.next()...)
	}
	return out
}

// shareKey is what a deck fixes: the class, and on serve-miss the model
// (serve-hit draws its models at random).
func shareKey(r request) string {
	if strings.HasPrefix(r.Class, "hit-") {
		return r.Class
	}
	return r.Class + " " + r.Model
}

func classCounts(rs []request) map[string]int {
	m := map[string]int{}
	for _, r := range rs {
		m[shareKey(r)]++
	}
	return m
}

func sizes(rs []request, class string) []float64 {
	var out []float64
	for _, r := range rs {
		if shareKey(r) == class {
			out = append(out, float64(r.Comms))
		}
	}
	sort.Float64s(out)
	return out
}

// ksDistance is the two-sample Kolmogorov-Smirnov statistic of sorted
// samples.
func ksDistance(a, b []float64) float64 {
	d, i, j := 0.0, 0, 0
	for i < len(a) && j < len(b) {
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// TestDecksFollowDefaultMix: each deck's class shares are those of
// loadgen.DefaultMix restricted to the workload's classes, and the
// serve-miss share of plain misses is split evenly over the models.
func TestDecksFollowDefaultMix(t *testing.T) {
	mix := loadgen.DefaultMix()
	mixClass := map[string]string{
		classHitJSON:   loadgen.ClassHit,
		classHitText:   loadgen.ClassText,
		classHitBatch:  loadgen.ClassBatch,
		classMissTopo:  loadgen.ClassTopo,
		classMissFault: loadgen.ClassFault,
		classCluster:   loadgen.ClassCluster,
	}
	for _, deck := range [][]string{hitDeck, missDeck} {
		counts := map[string]int{}
		models := map[string]int{}
		for _, e := range deck {
			c, ok := mixClass[e]
			if !ok { // a plain miss: a model name or capped Myrinet
				c = loadgen.ClassMiss
				models[e]++
			}
			counts[c]++
		}
		var first string
		for c := range counts {
			first = c
			break
		}
		for c, n := range counts {
			if n*mix[first] != counts[first]*mix[c] {
				t.Errorf("deck %v: %s:%s = %d:%d, DefaultMix has %d:%d", deck, c, first, n, counts[first], mix[c], mix[first])
			}
		}
		if len(models) > 0 && len(models) != len(catalogModels) {
			t.Errorf("plain misses cover %d models, want %d", len(models), len(catalogModels))
		}
		for m, n := range models {
			if n*len(catalogModels) != counts[loadgen.ClassMiss] {
				t.Errorf("model %s has %d of %d plain misses, want an even split", m, n, counts[loadgen.ClassMiss])
			}
		}
	}
}

// TestMissStreamBounds: serve-miss schemes respect the size caps, and
// no two predictions share a cache key.
func TestMissStreamBounds(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < clients; c++ {
		for _, r := range requests(workloadMiss, 3, c, 3000) {
			switch r.Class {
			case classMiss:
				if r.Comms < missMinComms || r.Comms > missMaxComms {
					t.Fatalf("miss scheme of %d comms", r.Comms)
				}
			case classMissMyrinet:
				if r.Comms > myrinetMaxComms {
					t.Fatalf("myrinet scheme of %d comms, cap %d", r.Comms, myrinetMaxComms)
				}
			case classMissTopo, classMissFault:
				if r.Comms < missMinComms || r.Comms > fabricMaxComms {
					t.Fatalf("fabric scheme of %d comms", r.Comms)
				}
			}
			if strings.HasPrefix(r.Class, "miss") {
				if seen[string(r.Body)] {
					t.Fatalf("repeated miss request %s", r.Body)
				}
				seen[string(r.Body)] = true
			}
		}
	}
}

// TestServeRunsCorrect drives both serve workloads briefly, checking
// every body, and expects no failure.
func TestServeRunsCorrect(t *testing.T) {
	for _, w := range []string{workloadHit, workloadMiss} {
		r, err := setupServe(w, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.sampleEvery = 1
		win := r.run(300*time.Millisecond, nil)
		r.verify(&win.log)
		r.dep.close()
		if win.log.attempted == 0 || win.log.failed != 0 {
			t.Fatalf("%s: %d of %d ops failed: %v", w, win.log.failed, win.log.attempted, win.log.problems)
		}
	}
}

// TestPerturbedBodyIsCaught: a one-digit change in one response body,
// injected the way loadgen.PerturbNth injects divergence, is caught by
// the byte-for-byte check and counted as exactly one failed op.
func TestPerturbedBodyIsCaught(t *testing.T) {
	for _, w := range []string{workloadHit, workloadMiss} {
		// Replica 0's 60th response is perturbed: past the warm-up of its
		// deployment (at most 50 catalog requests), inside the window.
		wrap := func(i int, h http.Handler) http.Handler {
			if i == 0 {
				return loadgen.PerturbNth(h, 60)
			}
			return h
		}
		r, err := setupServe(w, 5, wrap)
		if err != nil {
			t.Fatal(err)
		}
		r.sampleEvery = 1
		win := r.run(3*time.Second, nil)
		r.verify(&win.log)
		r.dep.close()
		if win.log.failed != 1 {
			t.Fatalf("%s: %d failed ops, want exactly the perturbed one (%v)", w, win.log.failed, win.log.problems)
		}
		if !strings.Contains(win.log.problems[0], "differs") {
			t.Fatalf("%s: failure %q is not a body mismatch", w, win.log.problems[0])
		}
	}
}

// TestReplayDigestMismatchIsCaught: a replay whose result differs from
// the first replay on the same engine fails its op.
func TestReplayDigestMismatchIsCaught(t *testing.T) {
	r, err := prepareReplay(2)
	if err != nil {
		t.Fatal(err)
	}
	op := 0
	if w := r.run(50*time.Millisecond, r.engines, &op); w.log.failed != 0 {
		t.Fatalf("unchanged replays failed: %v", w.log.problems)
	}
	for i := range r.cases {
		r.cases[i].digests[1] ^= 1 // gige's model engine
		r.cases[i].digests[3] ^= 1 // infiniband's
	}
	w := r.run(50*time.Millisecond, r.engines, &op)
	if w.log.attempted == 0 || w.log.failed != w.log.attempted {
		t.Fatalf("%d of %d ops failed, want all", w.log.failed, w.log.attempted)
	}
}

// TestTracedRunsStressTheirLayers: the traced runs pass their workload
// self-checks and report the layers each workload exists for.
func TestTracedRunsStressTheirLayers(t *testing.T) {
	want := map[string][]string{
		workloadHit:    {"gateway.hop_us", "api.resolve_calls", "server.predict_hit_calls", "report.encode_us"},
		workloadMiss:   {"server.predict_miss_calls", "predict.times_us", "model.penalties_calls.gige", "fleet.placements_us"},
		workloadReplay: {"netsim.advance_calls", "predict.advance_us", "replay.self_us"},
	}
	for _, w := range workloads {
		var out outcome
		var err error
		if w == workloadReplay {
			out, err = replayTraced(3, time.Second)
		} else {
			out, err = serveTraced(w, 3, time.Second)
		}
		if err != nil {
			t.Fatal(err)
		}
		if out.log.failed != 0 || len(out.problems) != 0 {
			t.Fatalf("%s: failed %d, problems %v %v", w, out.log.failed, out.problems, out.log.problems)
		}
		if _, err := collect(perLayer(), out.values); err != nil {
			t.Fatal(err)
		}
		for _, m := range want[w] {
			if out.values[m] <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w, m, out.values[m])
			}
		}
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from the program's list")
	}
}
