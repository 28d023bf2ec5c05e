package netsim

import (
	"math"
	"sync"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// fillPool recycles WaterFill scratch state across calls (and across
// engines: the experiment runner allocates on many goroutines).
var fillPool = sync.Pool{New: func() any { return new(fillScratch) }}

// putFillScratch returns scratch to fillPool unless it has outgrown the
// pooling cap, in which case it is dropped so one huge transient scheme
// cannot pin its capacity for the life of the process.
func putFillScratch(sc *fillScratch) {
	if sc.oversized() {
		return
	}
	fillPool.Put(sc)
}

// WaterFill computes the max-min fair allocation of rates to flows under
// three families of constraints: a per-flow rate cap, a capacity per
// sender NIC and a capacity per receiver NIC. senderCap and recvCap give
// the capacity for each node actually appearing as an endpoint; missing
// entries default to def. Rates are written into the flows.
//
// The algorithm is classic progressive filling: grow all unfrozen flows
// at the same speed until a constraint saturates, freeze the flows bound
// by it, repeat. It terminates in at most len(flows) rounds.
//
// Per-node state is slice-backed (node ids are interned to dense slots)
// and drawn from a pool, so repeated calls do zero heap allocation in
// steady state. Rates are bit-identical to ReferenceWaterFill.
func WaterFill(flows []*Flow, flowCap float64, senderCap, recvCap map[graph.NodeID]float64, defSend, defRecv float64) {
	if len(flows) == 0 {
		return
	}
	if !denseOK(flows) {
		referenceWaterFill(flows, flowCap, senderCap, recvCap, defSend, defRecv)
		return
	}
	sc := fillPool.Get().(*fillScratch)
	sc.begin()
	d := &sc.d
	for _, f := range flows {
		si, fresh := sc.snd.Intern(int(f.Src))
		if fresh {
			c := capOf(senderCap, f.Src, defSend)
			d.sndLeft = append(d.sndLeft, c)
			d.sndOrig = append(d.sndOrig, c)
			d.sndCount = append(d.sndCount, 0)
		}
		d.sndCount[si]++
		d.sidx = append(d.sidx, si)
		ri, fresh := sc.rcv.Intern(int(f.Dst))
		if fresh {
			c := capOf(recvCap, f.Dst, defRecv)
			d.rcvLeft = append(d.rcvLeft, c)
			d.rcvOrig = append(d.rcvOrig, c)
			d.rcvCount = append(d.rcvCount, 0)
		}
		d.rcvCount[ri]++
		d.ridx = append(d.ridx, ri)
	}
	d.run(flows, flowCap)
	putFillScratch(sc)
}

// CoupledConfig parameterizes CoupledAllocator.
type CoupledConfig struct {
	// LineRate is the NIC transmit capacity in bytes/second.
	LineRate float64
	// FlowCap is the maximum steady rate of a single flow (bytes/second).
	// For TCP this models the window/RTT ceiling (FlowCap = beta x
	// LineRate with the paper's beta); for InfiniBand the verbs engine
	// ceiling.
	FlowCap float64
	// RxCap is the receive-side capacity in bytes/second. Full-duplex
	// NICs receive independently of transmit; measured InfiniBand
	// penalties require RxCap slightly above LineRate.
	RxCap float64
	// Coupling is the sender-coupling strength kappa in [0, 1]. When a
	// receiver is oversubscribed by a factor rho > CouplingThreshold,
	// every sender feeding it loses a fraction kappa*(1 - 1/rho) of its
	// NIC capacity, slowing all of that sender's flows - including flows
	// to idle receivers. kappa = 1 models 802.3x pause frames (pausing
	// stops the whole link); intermediate values model InfiniBand credit
	// stalls. kappa = 0 disables coupling (pure max-min ablation).
	Coupling float64
	// CouplingThreshold is the oversubscription level above which the
	// sender coupling engages. Moderate overload is absorbed by
	// per-flow backpressure (TCP congestion control / per-QP credits)
	// without NIC-wide stalls; only heavy overload triggers pause
	// frames. Values <= 1 make coupling engage on any overload.
	CouplingThreshold float64
	// Topo describes the switch fabric connecting the hosts. The zero
	// value (single crossbar) imposes no constraints beyond the NICs
	// and takes exactly the topology-free code path; a non-trivial
	// fabric adds shared per-edge-switch uplink/downlink capacities to
	// the final water-fill. Capacities derive from the single-flow
	// reference rate (FlowCap) via Topo.UplinkCap — the same
	// normalization the paper uses for penalties — so substrate
	// measurements and model predictions place the fabric on one scale.
	// Sender coupling itself stays a NIC-level mechanism.
	Topo topology.Spec
	// Faults is the mutable degraded-capacity overlay, or nil for a
	// healthy fabric. Host factors scale the sender line rate and the
	// receive capacity; link factors scale the uplink/downlink
	// capacities of the fabric. The State is owned by a fault.Timeline
	// and mutated in place as the replay crosses fault change points, so
	// the allocator observes every step through this one pointer. A nil
	// State reads as factor 1 everywhere, and multiplying by exactly 1.0
	// is IEEE-exact, so the healthy path stays bit-identical to the
	// pre-fault code.
	Faults *fault.State
}

// CoupledAllocator implements the two-phase rate allocation shared by the
// GigE and InfiniBand substrates:
//
//  1. Base demand: each sender divides its line rate equally among its
//     active flows, each capped at FlowCap.
//  2. Receiver overload: every receiver computes its oversubscription
//     rho = base inflow / RxCap. Each sender's effective capacity is
//     reduced by Coupling*(1-1/rho_max) for the worst receiver it feeds
//     (pause frames / credit stalls throttle the whole NIC).
//  3. Final rates: max-min water-filling under FlowCap, the reduced
//     sender capacities and RxCap.
//
// The allocator owns reusable dense scratch state, so steady-state
// Allocate calls do zero heap allocation, and it implements
// ActiveSetObserver: when driven by a FluidEngine, per-sender and
// per-receiver active-flow counts are maintained incrementally across
// active-set changes instead of being recounted every allocation. One
// allocator must serve at most one engine.
type CoupledAllocator struct {
	Cfg CoupledConfig

	scr      *fillScratch
	live     activeCounts
	attached bool
}

// claim marks the allocator as owned by an engine; a second engine
// claiming it is refused (NewFluidEngine panics loudly rather than
// letting shared tracked counts corrupt rates silently).
func (a *CoupledAllocator) claim() bool {
	if a.attached {
		return false
	}
	a.attached = true
	return true
}

// activeCounts tracks per-node active flow counts, updated incrementally
// by the ActiveSetObserver callbacks. tracking stays false until an
// engine arms it via ActiveSetReset, so a standalone Allocate call (no
// engine) recounts from the flow slice and observes identical values.
type activeCounts struct {
	tracking bool
	out, in  []int32 // indexed by graph.NodeID
}

func (c *activeCounts) bump(f *Flow, delta int32) {
	if !c.tracking {
		return
	}
	if f.Src < 0 || f.Dst < 0 || int(f.Src) >= maxDenseNode || int(f.Dst) >= maxDenseNode {
		// Out-of-range ids take the reference fallback in Allocate;
		// stop tracking rather than keep partial counts.
		c.tracking = false
		return
	}
	if need := max(int(f.Src), int(f.Dst)) + 1; need > len(c.out) {
		n := max(need, 2*len(c.out))
		no := make([]int32, n)
		copy(no, c.out)
		c.out = no
		ni := make([]int32, n)
		copy(ni, c.in)
		c.in = ni
	}
	c.out[f.Src] += delta
	c.in[f.Dst] += delta
}

// countOut and countIn read the tracked counts defensively: a node the
// observer never saw has count zero.
func (c *activeCounts) countOut(n graph.NodeID) int32 {
	if int(n) >= len(c.out) {
		return 0
	}
	return c.out[n]
}

func (c *activeCounts) countIn(n graph.NodeID) int32 {
	if int(n) >= len(c.in) {
		return 0
	}
	return c.in[n]
}

var _ ActiveSetObserver = (*CoupledAllocator)(nil)

// FlowStarted implements ActiveSetObserver.
func (a *CoupledAllocator) FlowStarted(f *Flow) { a.live.bump(f, 1) }

// FlowFinished implements ActiveSetObserver.
func (a *CoupledAllocator) FlowFinished(f *Flow) { a.live.bump(f, -1) }

// ActiveSetReset implements ActiveSetObserver: the engine is (re)starting
// from an empty active set, which arms incremental count tracking.
func (a *CoupledAllocator) ActiveSetReset() {
	a.live.tracking = true
	clear(a.live.out)
	clear(a.live.in)
}

// scratch returns the allocator's reusable scratch, creating it on first
// use (so the zero value and struct literals keep working).
func (a *CoupledAllocator) scratch() *fillScratch {
	if a.scr == nil {
		a.scr = new(fillScratch)
	}
	return a.scr
}

// Allocate implements Allocator. Rates are bit-identical to
// ReferenceAllocator.Allocate.
func (a *CoupledAllocator) Allocate(flows []*Flow) {
	if len(flows) == 0 {
		return
	}
	if !denseOK(flows) {
		referenceCoupledTopoAllocate(a.Cfg, flows)
		return
	}
	coupledDenseAllocate(a.Cfg, flows, a.scratch(), &a.live)
}

// coupledDenseAllocate runs the dense coupled allocation (phases 1-3)
// over flows, using sc for all per-epoch state. live, when non-nil and
// tracking, supplies incrementally maintained per-node active counts;
// otherwise counts are recounted from the slice. Every flow must have
// passed denseOK. It is the shared core of CoupledAllocator.Allocate and
// of the per-component fills of IncrementalAllocator, which keeps the
// two bit-identical on identical flow slices by construction.
func coupledDenseAllocate(cfg CoupledConfig, flows []*Flow, sc *fillScratch, live *activeCounts) {
	sc.begin()
	d := &sc.d

	// Phase 1a: intern endpoints and establish per-sender/per-receiver
	// active counts — incrementally maintained ones when an engine feeds
	// us active-set changes, otherwise recounted from the slice. NIC
	// capacities carry the fault overlay's per-host factor (1 on a
	// healthy fabric, which multiplies exactly).
	tracked := live != nil && live.tracking
	for _, f := range flows {
		si, fresh := sc.snd.Intern(int(f.Src))
		if fresh {
			d.sndCount = append(d.sndCount, 0)
			sc.effSend = append(sc.effSend, cfg.LineRate*cfg.Faults.HostFactor(int(f.Src)))
			if tracked {
				d.sndCount[si] = live.countOut(f.Src)
			}
		}
		if !tracked {
			d.sndCount[si]++
		}
		d.sidx = append(d.sidx, si)
		ri, fresh := sc.rcv.Intern(int(f.Dst))
		if fresh {
			d.rcvCount = append(d.rcvCount, 0)
			sc.inflow = append(sc.inflow, 0)
			sc.rxCap = append(sc.rxCap, cfg.RxCap*cfg.Faults.HostFactor(int(f.Dst)))
			if tracked {
				d.rcvCount[ri] = live.countIn(f.Dst)
			}
		}
		if !tracked {
			d.rcvCount[ri]++
		}
		d.ridx = append(d.ridx, ri)
	}
	if tracked {
		// Consistency guard: every active flow contributes one to its
		// sender's tracked count, so the distinct-sender counts must sum
		// to len(flows). A mismatch means the allocator was fed a flow
		// set it was not tracking (e.g. a direct Allocate call while
		// serving an engine) — fail loudly instead of computing wrong
		// rates.
		total := 0
		for _, c := range d.sndCount {
			total += int(c)
		}
		if total != len(flows) {
			panic("netsim: CoupledAllocator tracked counts disagree with the flow set; an engine-attached allocator must only be invoked by its engine")
		}
	}

	// Phase 1b: base demand per sender, accumulated per receiver. The
	// sender line rate is the fault-scaled one captured in effSend (phase
	// 2 has not reduced it yet).
	for i := range flows {
		b := math.Min(cfg.FlowCap, sc.effSend[d.sidx[i]]/float64(d.sndCount[d.sidx[i]]))
		sc.inflow[d.ridx[i]] += b
	}

	// Phase 2: receiver oversubscription and sender coupling. rho is
	// inflow over the fault-scaled receive capacity; a zero-capacity
	// receiver with zero inflow yields rho = NaN, and NaN > threshold is
	// false, so degraded-to-zero NICs never engage coupling spuriously.
	// The coupling reduction scales off the sender's own degraded line
	// rate, recomputed here because effSend may already hold an earlier
	// flow's reduction.
	threshold := cfg.CouplingThreshold
	if threshold < 1 {
		threshold = 1
	}
	for i := range flows {
		rho := sc.inflow[d.ridx[i]] / sc.rxCap[d.ridx[i]]
		if rho > threshold && cfg.Coupling > 0 {
			sline := cfg.LineRate * cfg.Faults.HostFactor(int(flows[i].Src))
			reduced := sline * (1 - cfg.Coupling*(1-1/rho))
			if si := d.sidx[i]; reduced < sc.effSend[si] {
				sc.effSend[si] = reduced
			}
		}
	}

	// Phase 3: max-min under the adjusted capacities. The per-slot counts
	// from phase 1a are exactly the initial unfrozen counts. A trivial
	// topology runs the untouched crossbar routine, keeping its rates
	// bit-identical to the topology-free path.
	for _, v := range sc.effSend {
		d.sndLeft = append(d.sndLeft, v)
		d.sndOrig = append(d.sndOrig, v)
	}
	for _, v := range sc.rxCap {
		d.rcvLeft = append(d.rcvLeft, v)
		d.rcvOrig = append(d.rcvOrig, v)
	}
	if cfg.Topo.Trivial() {
		d.run(flows, cfg.FlowCap)
	} else {
		prepTopoLinks(sc, flows, cfg.Topo, cfg.Topo.UplinkCap(cfg.FlowCap), cfg.Faults)
		d.runTopo(flows, cfg.FlowCap)
	}
}
