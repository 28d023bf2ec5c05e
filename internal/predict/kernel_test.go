package predict

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"bwshare/internal/api"
	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/model"
	"bwshare/internal/netsim"
	"bwshare/internal/randgen"
	"bwshare/internal/topology"
)

// Engine-level differential tests for the dense kernel path: the served
// allocators must predict exactly what the historical allocator, which
// rebuilt a labelled conflict graph on every event, predicts.

// graphRebuild is that historical allocator, kept as the oracle. On every
// call it builds a conflict graph of the flows it is handed, asks the
// model for its penalties, caps degraded endpoints and, on a fabric,
// water-fills the uplinks.
type graphRebuild struct {
	m      core.Model
	ref    float64
	faults *fault.State
	topo   topology.Spec
	tf     netsim.TopoFiller
}

func (a *graphRebuild) Allocate(flows []*netsim.Flow) {
	if len(flows) == 0 {
		return
	}
	b := graph.NewBuilder()
	for _, f := range flows {
		b.Add(fmt.Sprintf("f%d", f.ID), f.Src, f.Dst, f.Remaining)
	}
	g, err := b.Build()
	if err != nil {
		panic("predict: building active conflict graph: " + err.Error())
	}
	p := a.m.Penalties(g)
	for i, f := range flows {
		r := a.ref / p[i]
		if a.faults != nil {
			if c := a.ref * a.faults.HostFactor(int(f.Src)); c < r {
				r = c
			}
			if c := a.ref * a.faults.HostFactor(int(f.Dst)); c < r {
				r = c
			}
		}
		f.Rate = r
	}
	a.tf.Apply(flows, a.topo, a.ref)
}

// oracleSession is a Session on graphRebuild.
func oracleSession(m core.Model, ref float64, topo topology.Spec, sched fault.Schedule) *Session {
	var tl *fault.Timeline
	var st *fault.State
	if !sched.Empty() {
		tl = fault.Compile(sched)
		st = tl.State()
	}
	e := netsim.NewFluidEngine("oracle", ref, &graphRebuild{m: m, ref: ref, faults: st, topo: topo, tf: netsim.TopoFiller{Faults: st}})
	if tl != nil {
		e.SetFaults(tl)
	}
	return &Session{m: m, ref: ref, eng: e}
}

// kernelTopos are the matrix fabrics. The 4x4 fabrics host nodes 0..15;
// larger ids wrap onto them (topology.Spec.SwitchOf is total).
var kernelTopos = []struct {
	name string
	spec topology.Spec
}{
	{"crossbar", topology.Spec{}},
	{"star", topology.Spec{Kind: topology.Star, Switches: 4, HostsPerSwitch: 4, Place: topology.Block}},
	{"fattree", topology.Spec{Kind: topology.FatTree, Switches: 4, HostsPerSwitch: 4, Oversub: 2, Place: topology.RoundRobin}},
}

// kernelModels are the registry models that take the dense kernel.
var kernelModels = []string{"gige", "infiniband", "kimlee", "linear"}

// relabel maps g's node ids onto base+0, base+1, ... in first-seen
// order, keeping labels and volumes.
func relabel(g *graph.Graph, base int) *graph.Graph {
	ids := map[graph.NodeID]graph.NodeID{}
	id := func(n graph.NodeID) graph.NodeID {
		v, ok := ids[n]
		if !ok {
			v = graph.NodeID(base + len(ids))
			ids[n] = v
		}
		return v
	}
	b := graph.NewBuilder()
	for _, c := range g.Comms() {
		b.Add(c.Label, id(c.Src), id(c.Dst), c.Volume)
	}
	return b.MustBuild()
}

// kernelSchemes are the matrix schemes: seeded catalog-sized schemes,
// larger conflict-heavy ones, sparse schemes just under the API's
// node-id limit, and schemes past the dense bound, which take the
// graph fallback.
func kernelSchemes(t *testing.T) map[string][]*graph.Graph {
	t.Helper()
	small, err := randgen.Schemes(211, 24, randgen.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := randgen.DefaultSchemeConfig()
	cfg.MaxNodes, cfg.MinComms, cfg.MaxComms, cfg.MaxOut, cfg.MaxIn = 16, 24, 64, 8, 8
	large, err := randgen.Schemes(212, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sparse, past []*graph.Graph
	for i, g := range small[:4] {
		sparse = append(sparse, relabel(g, api.MaxNodeID-16-i))
		past = append(past, relabel(g, graph.DenseLimit+i))
	}
	return map[string][]*graph.Graph{"small": small, "large": large, "sparse": sparse, "past-dense": past}
}

// kernelSchedule degrades g's fabric mid-replay: NIC slowdowns on two of
// its endpoints and, on a fabric, a transient link outage and a
// degradation. A slowdown whose endpoint the fabric lacks, or which is
// past the dense bound (fault tables are sized by host id), lands on
// host 0 instead.
func kernelSchedule(rng *rand.Rand, g *graph.Graph, topo topology.Spec) fault.Schedule {
	var ev []fault.Event
	for _, c := range []graph.Comm{g.Comm(0), g.Comm(graph.CommID(g.Len() - 1))} {
		host := int(c.Dst)
		if h := topo.Hosts(); (h > 0 && host >= h) || host >= graph.DenseLimit {
			host = 0
		}
		at := 0.002 + 0.05*rng.Float64()
		ev = append(ev, fault.Event{Kind: fault.HostSlow, Target: host, Factor: 0.3 + 0.5*rng.Float64(), At: at, Until: at + 0.04})
	}
	if !topo.Trivial() {
		ev = append(ev,
			fault.Event{Kind: fault.LinkDown, Target: rng.IntN(topo.Switches), At: 0.004, Until: 0.03},
			fault.Event{Kind: fault.LinkDegrade, Target: rng.IntN(topo.Switches), Factor: 0.4, At: 0.01})
	}
	return fault.Schedule{Events: ev}
}

// TestKernelSessionsMatchGraphRebuild is the differential matrix: seeded
// schemes x kernel models x {crossbar, star, fattree} x {healthy,
// faulted} sessions, each bit-identical to the same session on the
// graph-rebuild oracle.
func TestKernelSessionsMatchGraphRebuild(t *testing.T) {
	sets := kernelSchemes(t)
	for _, name := range kernelModels {
		m, sub, err := LookupModel(name)
		if err != nil {
			t.Fatal(err)
		}
		ref := sub.RefRate()
		for _, tp := range kernelTopos {
			for _, faulted := range []bool{false, true} {
				rng := rand.New(rand.NewPCG(7, 0))
				for set, gs := range sets {
					for si, g := range gs {
						sched := fault.Schedule{}
						if faulted {
							sched = kernelSchedule(rng, g, tp.spec)
						}
						s, err := NewSessionWithFaults(m, ref, tp.spec, sched)
						if err != nil {
							t.Fatal(err)
						}
						got := s.Times(g)
						want := oracleSession(m, ref, tp.spec, sched).Times(g)
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s/%s/faulted=%v/%s-%d comm %d: kernel %.17g, graph rebuild %.17g",
									name, tp.name, faulted, set, si, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelAllocatorPanics: the dense path keeps the graph build's
// rejections of self-loops and negative node ids.
func TestKernelAllocatorPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src, dst graph.NodeID
	}{
		{"self-loop", 3, 3},
		{"negative", -1, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s flow: no panic", tc.name)
				}
			}()
			a := newModelAllocator(model.NewGigE(), 1e8, nil)
			a.Allocate([]*netsim.Flow{{ID: 0, Src: 0, Dst: 1, Remaining: 1}, {ID: 1, Src: tc.src, Dst: tc.dst, Remaining: 1}})
		}()
	}
}

// TestSessionTimesZeroAllocs: a warm sequential Session predicts with
// zero heap allocations on the kernel models, at 32, 128 and 512
// communications, on a crossbar and on a fat-tree.
func TestSessionTimesZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewPCG(5, 5))
	for _, n := range []int{32, 128, 512} {
		b := graph.NewBuilder()
		for i := 0; i < n; i++ {
			src := rng.IntN(16)
			dst := (src + 1 + rng.IntN(15)) % 16
			b.Add(fmt.Sprintf("c%d", i), graph.NodeID(src), graph.NodeID(dst), 1e6+1e6*rng.Float64())
		}
		g := b.MustBuild()
		for _, name := range kernelModels {
			m, sub, err := LookupModel(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range []int{0, 2} {
				topo := kernelTopos[tp]
				s := NewSessionWithTopology(m, sub.RefRate(), topo.spec)
				s.Times(g)
				if a := testing.AllocsPerRun(2, func() { s.Times(g) }); a != 0 {
					t.Errorf("%s/%s/%d comms: Session.Times allocates %.0f/op when warm", name, topo.name, n, a)
				}
			}
		}
	}
}
