// Parallel prediction sessions: the model-driven engine on the sharded
// component-lazy netsim core.
//
// The sequential session (NewSession*) evaluates the penalty model on
// the whole active conflict graph at every event — the historical,
// golden-tested semantics. A parallel session instead evaluates the
// model once per constraint-graph component: independent components
// advance on worker shards, and each shard's allocator builds and
// scores only the component subgraphs it owns. For component-local
// models — every model in the registry: their penalty for a
// communication reads only degrees and couplings of communications
// sharing a sender NIC, receiver NIC or switch link with it — the
// per-component evaluation computes the same arithmetic on the same
// operands, so results are bit-identical at every shard count,
// including one. Versus the sequential session, per-component and
// whole-graph evaluation group integration steps differently, so
// predictions agree to float rounding (exactly, when the scheme is a
// single constraint component).
//
// Restriction: a model whose penalties couple communications across
// constraint components (e.g. the Myrinet EXP-A2 ablation with
// graph.AnyEndpoint, which conflicts a sender with a receiver of the
// same node) is not component-local and must use the sequential
// session.
package predict

import (
	"fmt"
	"runtime"

	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/netsim"
	"bwshare/internal/topology"
)

// NewSessionParallel builds a prediction session whose progressive
// evaluation fans independent constraint components out over worker
// shards (see netsim.NewShardedFluidEngine). shards <= 0 selects
// GOMAXPROCS; the count is otherwise taken as given, so callers wiring
// a -shards flag get exactly what was asked. sched may be empty for a
// healthy fabric; the same validation as NewSessionWithFaults applies
// otherwise. The model must be component-local (every registry model
// is; see the package note above).
func NewSessionParallel(m core.Model, refRate float64, topo topology.Spec, sched fault.Schedule, shards int) (*Session, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	var tl *fault.Timeline
	if !sched.Empty() {
		if err := sched.Validate(topo); err != nil {
			return nil, err
		}
		if i := sched.PermanentZero(); i >= 0 {
			return nil, fmt.Errorf("fault: event %d (%s): permanent zero-capacity fault stalls prediction forever; add an until clause", i, sched.Events[i])
		}
		tl = fault.Compile(sched)
	}
	name := fmt.Sprintf("predict-%s-x%d", m.Name(), shards)
	e := netsim.NewShardedFluidEngine(name, refRate, shards, func() netsim.Allocator {
		var st *fault.State
		if tl != nil {
			st = tl.State()
		}
		return &componentModelAllocator{topoModelAllocator{
			modelAllocator: newModelAllocator(m, refRate, st),
			topo:           topo,
			tf:             netsim.TopoFiller{Faults: st},
		}}
	})
	if tl != nil {
		e.SetFaults(tl)
	}
	return &Session{m: m, ref: refRate, eng: e}, nil
}

// componentModelAllocator adapts a component-local penalty Model to the
// sharded engine's ComponentAllocator contract: it groups the flows it
// is handed into constraint-graph components and runs the sequential
// allocator (model penalties, degraded-endpoint caps and, on a fabric,
// the uplink water-fill) once per component, so a component's rates
// never depend on what else shares its shard. All fabric links a
// component's flows cross belong to the component by construction. One
// instance per shard: the allocator and filler carry scratch.
type componentModelAllocator struct {
	topoModelAllocator
}

var _ netsim.ComponentAllocator = (*componentModelAllocator)(nil)

// ComponentTopology implements netsim.ComponentAllocator.
func (a *componentModelAllocator) ComponentTopology() topology.Spec { return a.topo }

// Allocate implements netsim.Allocator.
func (a *componentModelAllocator) Allocate(flows []*netsim.Flow) {
	if len(flows) == 0 {
		return
	}
	for _, grp := range componentGroups(flows, a.topo) {
		a.topoModelAllocator.Allocate(grp)
	}
}

// componentGroups partitions flows into connected components of the
// constraint graph (shared sender NIC, receiver NIC, or edge-switch
// uplink/downlink of crossing flows), components in first-flow order
// with slice order preserved inside each. Transliterated from netsim's
// reference oracle; this path carries no zero-allocation obligation.
func componentGroups(flows []*netsim.Flow, topo topology.Spec) [][]*netsim.Flow {
	type key struct {
		kind uint8
		id   int
	}
	elem := make(map[key]int)
	parent := make([]int, 0, 2*len(flows))
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	slot := func(k key) int {
		if s, ok := elem[k]; ok {
			return s
		}
		s := len(parent)
		parent = append(parent, s)
		elem[k] = s
		return s
	}
	union := func(x, y int) int {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[ry] = rx
		}
		return rx
	}
	trivial := topo.Trivial()
	roots := make([]int, len(flows))
	for i, f := range flows {
		r := union(slot(key{0, int(f.Src)}), slot(key{1, int(f.Dst)}))
		if !trivial {
			ss, ds := topo.SwitchOf(f.Src), topo.SwitchOf(f.Dst)
			if ss != ds {
				r = union(r, slot(key{2, ss}))
				r = union(r, slot(key{3, ds}))
			}
		}
		roots[i] = r
	}
	groupOf := make(map[int]int)
	var groups [][]*netsim.Flow
	for i, f := range flows {
		r := find(roots[i])
		gi, ok := groupOf[r]
		if !ok {
			gi = len(groups)
			groupOf[r] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], f)
	}
	return groups
}
