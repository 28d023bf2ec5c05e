package netsim

import (
	"bwshare/internal/fault"
)

// Incremental component-scoped allocation.
//
// The coupled allocation (CoupledAllocator) decomposes over the
// connected components of the constraint graph on active flows: two
// flows interact only if they share a sender NIC, a receiver NIC, or —
// on a multi-switch fabric — an edge-switch uplink or downlink. Base
// demand, receiver oversubscription, sender coupling and the final
// water-fill all read state confined to one component, so the max-min
// allocation of a component depends on nothing outside it.
//
// IncrementalAllocator exploits that: it maintains the constraint graph
// across active-set changes (via the ActiveSetObserver callbacks a
// FluidEngine already emits), partitions it with a union-find over
// constraint slots, and on each Allocate refills only the components a
// flow arrival or departure touched. Rates of untouched components are
// left exactly as the previous fill wrote them — the cache is the
// Flow.Rate field itself. Under churn of many independent jobs the
// per-event fill cost therefore scales with the touched component, not
// with the total number of active flows.
//
// Removals are handled without a per-event rebuild: the persistent
// union-find only ever accretes unions, so after departures it is a
// monotone over-approximation of true connectivity. That is safe —
// dirty marking on over-merged components marks a superset of the
// affected flows — because the exact component grouping of the flows
// being refilled is recomputed transiently (and cheaply, over just the
// dirty flows) at fill time. The over-approximation is compacted by a
// full re-derivation only once enough removals accumulate, which
// amortizes the linear rebuild cost to O(1) per event.
//
// Equivalence contract: rates are bit-identical to
// ReferenceComponentAllocator, the retained map-based full-recompute
// oracle that partitions the flow set from scratch on every call and
// fills each component with the PR-2/PR-4 reference routines. This
// holds because (a) a cached component's rates were produced by a fill
// over exactly its current member flows in active-slice order — the
// same sub-slice the oracle fills — and (b) the per-component dense
// fill (coupledDenseAllocate) is bit-identical to the per-component
// reference fill by the PR-2/PR-4 differential guarantees. The engine's
// active slice keeps flows in start order (reap compacts in place), so
// the sub-slice order never drifts between the two.

// unionFind is a slot-indexed union-find with union by rank and path
// halving.
type unionFind struct {
	parent []int32
	rank   []uint8
}

// grow extends the structure to n singleton slots.
func (u *unionFind) grow(n int) {
	for len(u.parent) < n {
		u.parent = append(u.parent, int32(len(u.parent)))
		u.rank = append(u.rank, 0)
	}
}

// find returns the root of x with path halving.
func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// reset returns every slot to a singleton without shrinking.
func (u *unionFind) reset() {
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.rank[i] = 0
	}
}

// compactionFloor is the minimum number of departures before the
// persistent partition is re-derived from the live flows. Together with
// the >= len(flows) condition it amortizes the linear re-derivation to
// constant work per event.
const compactionFloor = 64

// IncrementalAllocator is the production allocator of the GigE and
// InfiniBand substrates: CoupledAllocator semantics, evaluated
// incrementally per connected component of the flow constraint graph
// (see the package comment above). It implements ActiveSetObserver;
// driven by a FluidEngine it refills only dirty components, and a
// standalone Allocate call (no engine) falls back to a full
// component-scoped recompute with identical results. One allocator must
// serve at most one engine. Steady-state Allocate calls do zero heap
// allocation.
type IncrementalAllocator struct {
	Cfg CoupledConfig

	attached bool
	tracking bool
	nlive    int // tracked active flow count
	removals int // departures since the partition was last re-derived

	// Constraint-slot interning, one table per namespace (-1 = no slot
	// yet). Senders and receivers are indexed by node id, uplinks and
	// downlinks by edge-switch id. Slots persist for the lifetime of one
	// engine run and are reset with the active set.
	sndSlot, rcvSlot []int32
	upSlot, dnSlot   []int32

	uf    unionFind
	dirty []bool // per slot; authoritative at component roots

	scr fillScratch // per-component dense fill state, reused

	// Transient exact-partition state for fillDirty: a union-find over
	// the dirty flows, linked through epoch-stamped per-slot ownership.
	tEpoch uint64
	tStamp []uint64 // per slot: epoch of last transient use
	tOwner []int32  // per slot: dirty flow that owns it this epoch
	tPar   []int32  // per dirty flow: transient union-find parent
	tComp  []int32  // per dirty flow: component index of a transient root

	// Per-Allocate epoch scratch.
	dirtyIdx  []int32 // indices (into the flow slice) of dirty flows
	flowComp  []int32 // per dirty flow: component index
	compCount []int32
	compOff   []int32
	compCur   []int32
	compFlows []*Flow
}

var _ Allocator = (*IncrementalAllocator)(nil)
var _ ActiveSetObserver = (*IncrementalAllocator)(nil)
var _ FaultObserver = (*IncrementalAllocator)(nil)

// claim marks the allocator as owned by an engine (see claimable).
func (a *IncrementalAllocator) claim() bool {
	if a.attached {
		return false
	}
	a.attached = true
	return true
}

// slotFor returns the constraint slot for id in the given namespace
// table, issuing a fresh slot on first sight.
func (a *IncrementalAllocator) slotFor(tbl *[]int32, id int) int32 {
	for len(*tbl) <= id {
		*tbl = append(*tbl, -1)
	}
	if (*tbl)[id] < 0 {
		s := int32(len(a.uf.parent))
		a.uf.grow(int(s) + 1)
		a.dirty = append(a.dirty, false)
		a.tStamp = append(a.tStamp, 0)
		a.tOwner = append(a.tOwner, 0)
		(*tbl)[id] = s
	}
	return (*tbl)[id]
}

// union merges the components of slots x and y, propagating the dirty
// mark to the surviving root, and returns that root.
func (a *IncrementalAllocator) union(x, y int32) int32 {
	rx, ry := a.uf.find(x), a.uf.find(y)
	if rx == ry {
		return rx
	}
	if a.uf.rank[rx] < a.uf.rank[ry] {
		rx, ry = ry, rx
	} else if a.uf.rank[rx] == a.uf.rank[ry] {
		a.uf.rank[rx]++
	}
	a.uf.parent[ry] = rx
	if a.dirty[ry] {
		a.dirty[rx] = true
	}
	return rx
}

// link unions f's constraint slots (sender, receiver, and on a
// non-trivial fabric the uplink/downlink of a crossing flow) and
// returns the component root.
func (a *IncrementalAllocator) link(f *Flow) int32 {
	root := a.union(a.slotFor(&a.sndSlot, int(f.Src)), a.slotFor(&a.rcvSlot, int(f.Dst)))
	if !a.Cfg.Topo.Trivial() {
		ss, ds := a.Cfg.Topo.SwitchOf(f.Src), a.Cfg.Topo.SwitchOf(f.Dst)
		if ss != ds {
			root = a.union(root, a.slotFor(&a.upSlot, ss))
			root = a.union(root, a.slotFor(&a.dnSlot, ds))
		}
	}
	return root
}

// FlowStarted implements ActiveSetObserver: the new flow's constraints
// join the partition and its (possibly merged) component becomes dirty.
func (a *IncrementalAllocator) FlowStarted(f *Flow) {
	if !a.tracking {
		return
	}
	if f.Src < 0 || f.Dst < 0 || int(f.Src) >= maxDenseNode || int(f.Dst) >= maxDenseNode {
		// Out-of-range ids take the reference fallback in Allocate; stop
		// tracking rather than keep a partial partition.
		a.tracking = false
		return
	}
	a.dirty[a.link(f)] = true
	a.nlive++
}

// FlowFinished implements ActiveSetObserver: the departing flow's
// component becomes dirty. The partition itself is left alone — it now
// over-approximates connectivity, which fillDirty's transient exact
// grouping tolerates — and is compacted amortized in Allocate.
func (a *IncrementalAllocator) FlowFinished(f *Flow) {
	if !a.tracking {
		return
	}
	a.dirty[a.uf.find(a.sndSlot[f.Src])] = true
	a.removals++
	a.nlive--
}

// FaultTargetsChanged implements FaultObserver: the fabric resources
// whose capacity factor just changed mark their constraint components
// dirty, so the next Allocate refills exactly the flows whose rates the
// fault can move — everything sharing a component with the degraded
// link or NIC. A target no active flow has ever touched has no slot and
// is skipped; a slot whose component holds no live flows takes a
// harmless stale mark (pass 1 finds no matching flows). Correctness
// rests on the same decomposition argument as the rest of this file:
// a capacity change at one slot can only move rates inside that slot's
// component, because base demand, coupling and the water-fill read
// state confined to the component.
func (a *IncrementalAllocator) FaultTargetsChanged(targets []fault.Target) {
	if !a.tracking {
		return
	}
	for _, t := range targets {
		switch t.Kind {
		case fault.TargetLink:
			a.markSlot(a.upSlot, t.ID)
			a.markSlot(a.dnSlot, t.ID)
		case fault.TargetHost:
			a.markSlot(a.sndSlot, t.ID)
			a.markSlot(a.rcvSlot, t.ID)
		}
	}
}

// markSlot dirties the component of the slot interned for id, if any.
func (a *IncrementalAllocator) markSlot(tbl []int32, id int) {
	if id < 0 || id >= len(tbl) || tbl[id] < 0 {
		return
	}
	a.dirty[a.uf.find(tbl[id])] = true
}

// ActiveSetReset implements ActiveSetObserver: the engine is
// (re)starting from an empty active set, which arms incremental
// tracking and clears the partition.
func (a *IncrementalAllocator) ActiveSetReset() {
	a.tracking = true
	a.nlive = 0
	a.removals = 0
	a.resetPartition()
}

// resetPartition empties the slot tables and the union-find. Capacity
// is kept for the steady state but shed where one huge transient run
// inflated it (mirroring putFillScratch): without the shed, a single
// scheme addressing a near-maxDenseNode id or carrying an enormous flow
// count would pin tens of megabytes in every long-lived engine forever.
func (a *IncrementalAllocator) resetPartition() {
	if len(a.sndSlot) > maxPooledScratchLen || len(a.rcvSlot) > maxPooledScratchLen {
		a.sndSlot, a.rcvSlot = nil, nil
	}
	if len(a.upSlot) > maxPooledScratchLen || len(a.dnSlot) > maxPooledScratchLen {
		a.upSlot, a.dnSlot = nil, nil
	}
	if cap(a.uf.parent) > maxPooledScratchLen {
		a.uf.parent, a.uf.rank = nil, nil
		a.dirty, a.tStamp, a.tOwner = nil, nil, nil
	}
	if a.scr.oversized() {
		a.scr = fillScratch{}
	}
	if cap(a.compFlows) > maxPooledScratchLen {
		a.dirtyIdx, a.flowComp, a.compFlows = nil, nil, nil
		a.tPar, a.tComp = nil, nil
		a.compCount, a.compOff, a.compCur = nil, nil, nil
	}
	for i := range a.sndSlot {
		a.sndSlot[i] = -1
	}
	for i := range a.rcvSlot {
		a.rcvSlot[i] = -1
	}
	for i := range a.upSlot {
		a.upSlot[i] = -1
	}
	for i := range a.dnSlot {
		a.dnSlot[i] = -1
	}
	a.uf.parent = a.uf.parent[:0]
	a.uf.rank = a.uf.rank[:0]
	a.dirty = a.dirty[:0]
	a.tStamp = a.tStamp[:0]
	a.tOwner = a.tOwner[:0]
}

// Allocate implements Allocator. Rates are bit-identical to
// ReferenceComponentAllocator.Allocate on the same flow slice.
func (a *IncrementalAllocator) Allocate(flows []*Flow) {
	if len(flows) == 0 {
		return
	}
	if !denseOK(flows) {
		referenceComponentAllocate(a.Cfg, flows)
		return
	}
	if !a.tracking {
		a.fullAllocate(flows)
		return
	}
	if a.nlive != len(flows) {
		panic("netsim: IncrementalAllocator tracked flow count disagrees with the flow set; an engine-attached allocator must only be invoked by its engine")
	}
	// Pass 1: collect the flows of dirty components. Dirty marks live at
	// roots and unions propagate them, so one find per flow suffices.
	a.dirtyIdx = a.dirtyIdx[:0]
	for i, f := range flows {
		if a.dirty[a.uf.find(a.sndSlot[f.Src])] {
			a.dirtyIdx = append(a.dirtyIdx, int32(i))
		}
	}
	if a.removals >= compactionFloor && a.removals >= len(flows) {
		a.rebuild(flows)
	}
	if len(a.dirtyIdx) == 0 {
		return // every component cached; rates already in Flow.Rate
	}
	a.fillDirty(flows)
}

// rebuild re-derives the persistent partition from the live flow set,
// shedding the over-merges accumulated by departures: every slot
// reverts to a singleton, live flows re-union their constraints, and
// the dirty marks captured in dirtyIdx are re-applied to the new roots.
func (a *IncrementalAllocator) rebuild(flows []*Flow) {
	a.uf.reset()
	for i := range a.dirty {
		a.dirty[i] = false
	}
	for _, f := range flows {
		a.link(f)
	}
	for _, fi := range a.dirtyIdx {
		a.dirty[a.uf.find(a.sndSlot[flows[fi].Src])] = true
	}
	a.removals = 0
}

// fillDirty recomputes the exact component grouping of the dirty flows
// and runs the dense coupled fill once per component, preserving the
// slice order inside each group. Clean flows are not touched. The
// grouping is exact even when the persistent partition over-merges: the
// dirty set is a union of whole true components (dirty marking is
// per persistent component, a superset of true ones), and connectivity
// below is derived from the flows themselves.
func (a *IncrementalAllocator) fillDirty(flows []*Flow) {
	k := len(a.dirtyIdx)
	a.tPar = growInt32s(a.tPar, k)
	for i := 0; i < k; i++ {
		a.tPar[i] = int32(i)
	}
	a.tEpoch++
	tfind := func(x int32) int32 {
		for a.tPar[x] != x {
			a.tPar[x] = a.tPar[a.tPar[x]]
			x = a.tPar[x]
		}
		return x
	}
	// Link dirty flows that share a constraint slot: the first dirty
	// flow touching a slot this epoch owns it, later ones union with
	// the owner.
	touch := func(d, slot int32) {
		if a.tStamp[slot] != a.tEpoch {
			a.tStamp[slot] = a.tEpoch
			a.tOwner[slot] = d
			return
		}
		rx, ry := tfind(d), tfind(a.tOwner[slot])
		if rx != ry {
			if rx > ry {
				rx, ry = ry, rx
			}
			a.tPar[ry] = rx // smaller ordinal wins: roots keep first-seen order
		}
	}
	trivial := a.Cfg.Topo.Trivial()
	for di, fi := range a.dirtyIdx {
		f := flows[fi]
		d := int32(di)
		touch(d, a.sndSlot[f.Src])
		touch(d, a.rcvSlot[f.Dst])
		if !trivial {
			ss, ds := a.Cfg.Topo.SwitchOf(f.Src), a.Cfg.Topo.SwitchOf(f.Dst)
			if ss != ds {
				touch(d, a.upSlot[ss])
				touch(d, a.dnSlot[ds])
			}
		}
	}
	// Group by transient root, components in first-flow order, flows in
	// slice order within a component.
	a.tComp = growInt32s(a.tComp, k)
	for i := 0; i < k; i++ {
		a.tComp[i] = -1
	}
	a.flowComp = growInt32s(a.flowComp, k)
	a.compCount = a.compCount[:0]
	ncomp := int32(0)
	for di := range a.dirtyIdx {
		root := tfind(int32(di))
		if a.tComp[root] < 0 {
			a.tComp[root] = ncomp
			a.compCount = append(a.compCount, 0)
			ncomp++
		}
		c := a.tComp[root]
		a.flowComp[di] = c
		a.compCount[c]++
	}
	a.compOff = growInt32s(a.compOff, int(ncomp))
	a.compCur = growInt32s(a.compCur, int(ncomp))
	off := int32(0)
	for c := int32(0); c < ncomp; c++ {
		a.compOff[c] = off
		a.compCur[c] = off
		off += a.compCount[c]
	}
	a.compFlows = growFlows(a.compFlows, k)
	for di, fi := range a.dirtyIdx {
		c := a.flowComp[di]
		a.compFlows[a.compCur[c]] = flows[fi]
		a.compCur[c]++
	}
	for c := int32(0); c < ncomp; c++ {
		sub := a.compFlows[a.compOff[c] : a.compOff[c]+a.compCount[c]]
		coupledDenseAllocate(a.Cfg, sub, &a.scr, nil)
	}
	// Drop the flow pointers: the Allocator contract forbids retaining
	// them past the call (the engine recycles completed Flow structs,
	// and a kept pointer would also pin structs the free-list cap meant
	// to release to the GC).
	clear(a.compFlows[:k])
	// Clear the persistent dirty marks of everything just refilled.
	if a.tracking {
		for _, fi := range a.dirtyIdx {
			a.dirty[a.uf.find(a.sndSlot[flows[fi].Src])] = false
		}
	}
}

// fullAllocate recomputes every component from scratch — the standalone
// (engine-less) path, also taken after tracking is disarmed mid-run. It
// marks every flow dirty and reuses fillDirty's transient grouping, so
// results match the incremental path bit for bit.
func (a *IncrementalAllocator) fullAllocate(flows []*Flow) {
	a.dirtyIdx = a.dirtyIdx[:0]
	for i, f := range flows {
		// Grouping only needs the slots to exist; connectivity comes
		// from the transient partition.
		a.slotFor(&a.sndSlot, int(f.Src))
		a.slotFor(&a.rcvSlot, int(f.Dst))
		if !a.Cfg.Topo.Trivial() {
			ss, ds := a.Cfg.Topo.SwitchOf(f.Src), a.Cfg.Topo.SwitchOf(f.Dst)
			if ss != ds {
				a.slotFor(&a.upSlot, ss)
				a.slotFor(&a.dnSlot, ds)
			}
		}
		a.dirtyIdx = append(a.dirtyIdx, int32(i))
	}
	a.fillDirty(flows)
}

// growInt32s returns buf resized to n, reallocating only when capacity
// lacks.
func growInt32s(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// growFlows is growInt32s for flow-pointer slices.
func growFlows(buf []*Flow, n int) []*Flow {
	if cap(buf) < n {
		return make([]*Flow, n)
	}
	return buf[:n]
}
