package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
)

// Request classes of the serve-* workloads. A class names one kind of
// HTTP call; its share of a workload is fixed by the workload's deck.
const (
	classHitJSON  = "hit-json"
	classHitText  = "hit-text"
	classHitBatch = "hit-batch"

	classMiss        = "miss"
	classMissMyrinet = "miss-myrinet"
	classMissTopo    = "miss-topo"
	classMissFault   = "miss-fault"

	classClusterCreate = "cluster-create"
	classClusterJob    = "cluster-job"
	classClusterPlace  = "cluster-place"
	classClusterDelete = "cluster-delete"

	// classCluster is a deck entry: one cluster lifecycle, which emits
	// the four cluster-* requests above in order.
	classCluster = "cluster"
)

// request is one generated HTTP call.
type request struct {
	Class  string
	Method string
	Path   string // path and query, relative to the base URL
	Body   []byte // nil for GET and DELETE
	Status int    // the status a correct server answers
	Model  string // model of a predict request ("" for cluster calls)
	Comms  int    // communications in the request's scheme(s)
}

// catalogSchemes and catalogModels span the hit workload's key set: every
// built-in scheme under every registered model. All of them are warmed
// during set-up, so each timed hit request is a cache hit.
var (
	catalogSchemes = []string{"s1", "s2", "s3", "s4", "s5", "s6", "fig4", "fig5", "mk1", "mk2"}
	catalogModels  = []string{"gige", "myrinet", "infiniband", "kimlee", "linear"}
)

// Decks fix each workload's class shares exactly: every cycle of a
// client's stream plays each deck entry once, in a seeded order. The
// shares are those of the repository's canonical traffic mix,
// loadgen.DefaultMix (a test keeps them equal), restricted to each
// workload's classes:
//
//   - serve-hit takes predict-hit : predict-text : predict-batch = 4:1:1;
//   - serve-miss takes predict-miss : predict-topo : predict-fault :
//     cluster = 2:1:1:1, with the predict-miss share split evenly over
//     the five models, so every share is scaled by 5.
var (
	hitDeck = []string{
		classHitJSON, classHitJSON, classHitJSON, classHitJSON,
		classHitText,
		classHitBatch,
	}
	// Myrinet schemes are capped at 16 comms: its state-set model grows
	// exponentially with scheme size, and one uncapped request would be
	// the whole run (see README.md).
	missDeck = []string{
		"gige", "gige",
		"infiniband", "infiniband",
		"kimlee", "kimlee",
		"linear", "linear",
		classMissMyrinet, classMissMyrinet,
		classMissTopo, classMissTopo, classMissTopo, classMissTopo, classMissTopo,
		classMissFault, classMissFault, classMissFault, classMissFault, classMissFault,
		classCluster, classCluster, classCluster, classCluster, classCluster,
	}
)

// Scheme sizes of the serve-miss workload.
const (
	missMinComms    = 8
	missMaxComms    = 64
	myrinetMaxComms = 16
	fabricMaxComms  = 32
	// batchItems is loadgen.ClassBatch's size; serve-hit's batches hold
	// catalog items only.
	batchItems = 4
)

// The fabric of the topology and fault classes: 4 edge switches of 4
// hosts each, uplinks oversubscribed 2:1.
const (
	fabricSwitches = 4
	fabricHosts    = 4
	fabricJSON     = `{"kind":"fattree","switches":4,"hosts_per_switch":4,"oversub":2}`
	clusterFabric  = `{"kind":"fattree","switches":2,"hosts_per_switch":4,"oversub":2}`
	clusterJobSize = 4
)

// stream generates one client's deterministic request sequence: the
// sequence is a pure function of (workload, seed, client).
type stream struct {
	rng    *rand.Rand
	client int
	op     int
	deck   []string
	order  []string // the current cycle's shuffled deck
}

func newStream(workload string, seed int64, client int) *stream {
	s := &stream{
		// Distinct client streams from one seed; the offset is arbitrary
		// but fixed, since recorded streams depend on it.
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client)*1_000_003)),
		client: client,
	}
	switch workload {
	case workloadHit:
		s.deck = hitDeck
	case workloadMiss:
		s.deck = missDeck
	default:
		panic("perfbench: no request stream for workload " + workload)
	}
	return s
}

// next returns the requests of one deck entry (a cluster lifecycle
// yields four) and advances the stream.
func (s *stream) next() []request {
	if len(s.order) == 0 {
		s.order = append(s.order, s.deck...)
		s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	}
	class := s.order[0]
	s.order = s.order[1:]
	reqs := s.build(class)
	s.op++
	return reqs
}

// requests materialises the first n requests of a client's stream
// without issuing anything.
func requests(workload string, seed int64, client, n int) []request {
	s := newStream(workload, seed, client)
	var out []request
	for len(out) < n {
		out = append(out, s.next()...)
	}
	return out[:n]
}

func (s *stream) build(class string) []request {
	switch class {
	case classHitJSON, classHitText:
		name, model := s.catalogPair()
		path := fmt.Sprintf("/v1/predict?name=%s&model=%s", name, model)
		if class == classHitText {
			path = fmt.Sprintf("/v1/predict?format=text&name=%s&model=%s", name, model)
		}
		return []request{{Class: class, Method: http.MethodGet, Path: path, Status: http.StatusOK, Model: model, Comms: catalogSize(name)}}
	case classHitBatch:
		items := make([]string, batchItems)
		comms := 0
		for i := range items {
			name, model := s.catalogPair()
			items[i] = fmt.Sprintf(`{"name":%q,"model":%q}`, name, model)
			comms += catalogSize(name)
		}
		body := `{"requests":[` + strings.Join(items, ",") + `]}`
		return []request{{Class: class, Method: http.MethodPost, Path: "/v1/predict/batch", Body: []byte(body), Status: http.StatusOK, Comms: comms}}
	case classMissMyrinet:
		return []request{s.predict(classMissMyrinet, "myrinet", s.size(missMinComms, myrinetMaxComms), "")}
	case classMissTopo:
		n := s.size(missMinComms, fabricMaxComms)
		return []request{s.predictOn(classMissTopo, "gige", n, fabricSwitches*fabricHosts, `,"topology":`+fabricJSON)}
	case classMissFault:
		n := s.size(missMinComms, fabricMaxComms)
		faults := fmt.Sprintf(`,"topology":%s,"faults":[{"kind":"link_degrade","switch":%d,"factor":0.5,"at":0.001},`+
			`{"kind":"host_slow","host":%d,"factor":0.5,"at":0,"until":0.05}]`,
			fabricJSON, s.rng.Intn(fabricSwitches), s.rng.Intn(fabricSwitches*fabricHosts))
		return []request{s.predictOn(classMissFault, "gige", n, fabricSwitches*fabricHosts, faults)}
	case classCluster:
		return s.lifecycle()
	default: // a plain miss; the deck entry names its model
		return []request{s.predict(classMiss, class, s.size(missMinComms, missMaxComms), "")}
	}
}

func (s *stream) catalogPair() (string, string) {
	return catalogSchemes[s.rng.Intn(len(catalogSchemes))], catalogModels[s.rng.Intn(len(catalogModels))]
}

func (s *stream) size(lo, hi int) int { return lo + s.rng.Intn(hi-lo+1) }

// predict builds a fresh-scheme POST over n/2+4 nodes: about two
// conflicts per node, the density of the paper's schemes.
func (s *stream) predict(class, model string, n int, extra string) request {
	return s.predictOn(class, model, n, n/2+4, extra)
}

func (s *stream) predictOn(class, model string, n, nodes int, extra string) request {
	body := fmt.Sprintf(`{"model":%q%s,"comms":%s}`, model, extra, s.randComms(n, nodes))
	return request{Class: class, Method: http.MethodPost, Path: "/v1/predict", Body: []byte(body), Status: http.StatusOK, Model: model, Comms: n}
}

// lifecycle is one cluster's life: create a fat-tree cluster, admit a
// ring job, rank placements for a second ring job, delete the cluster.
func (s *stream) lifecycle() []request {
	name := fmt.Sprintf("pb-%d-%d", s.client, s.op)
	base := "/v1/clusters/" + name
	return []request{
		{Class: classClusterCreate, Method: http.MethodPost, Path: "/v1/clusters", Status: http.StatusCreated,
			Body: []byte(fmt.Sprintf(`{"name":%q,"topology":%s}`, name, clusterFabric))},
		{Class: classClusterJob, Method: http.MethodPost, Path: base + "/jobs", Status: http.StatusCreated, Comms: clusterJobSize,
			Body: []byte(fmt.Sprintf(`{"name":"j1","comms":%s}`, s.ringComms(clusterJobSize)))},
		{Class: classClusterPlace, Method: http.MethodPost, Path: base + "/placements", Status: http.StatusOK, Comms: clusterJobSize,
			Body: []byte(fmt.Sprintf(`{"comms":%s,"seeds":1}`, s.ringComms(clusterJobSize)))},
		{Class: classClusterDelete, Method: http.MethodDelete, Path: base, Status: http.StatusOK},
	}
}

// uniqueVolume returns a volume no other (client, op, k) produces, so
// every miss scheme hashes to a fresh cache key; the magnitudes stay
// exactly representable in float64.
func (s *stream) uniqueVolume(k int) float64 {
	return 1e6 + float64(s.client)*1e9 + float64(s.op)*1e3 + float64(k)*7
}

// randComms renders n random communications over nodes [0, nodes) as a
// JSON array.
func (s *stream) randComms(n, nodes int) string {
	var b strings.Builder
	b.WriteByte('[')
	for k := 0; k < n; k++ {
		src := s.rng.Intn(nodes)
		dst := s.rng.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"src":%d,"dst":%d,"volume":%.0f}`, src, dst, s.uniqueVolume(k))
	}
	b.WriteByte(']')
	return b.String()
}

// ringComms renders an n-task ring with unique volumes.
func (s *stream) ringComms(n int) string {
	var b strings.Builder
	b.WriteByte('[')
	for k := 0; k < n; k++ {
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"src":%d,"dst":%d,"volume":%.0f}`, k, (k+1)%n, s.uniqueVolume(k))
	}
	b.WriteByte(']')
	return b.String()
}
