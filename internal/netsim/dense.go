package netsim

import (
	"math"

	"bwshare/internal/graph"
)

// Dense scratch state for the allocation core. graph.NodeID values are
// small cluster indices, so per-node state lives in flat slices indexed by
// an interned slot instead of maps. All buffers are reused across epochs
// (one epoch per Allocate call): the interner invalidates old slots with
// an epoch stamp instead of clearing, so a steady-state allocation does
// zero heap allocation.

// maxDenseNode bounds the node ids the dense path will intern (see
// graph.DenseLimit); anything larger falls back to the map-based
// reference implementation.
const maxDenseNode = graph.DenseLimit

// denseOK reports whether every endpoint of flows is eligible for the
// dense slot tables.
func denseOK(flows []*Flow) bool {
	for _, f := range flows {
		if f.Src < 0 || f.Dst < 0 || int(f.Src) >= maxDenseNode || int(f.Dst) >= maxDenseNode {
			return false
		}
	}
	return true
}

// denseFill is the slice-backed progressive-filling state: per-flow
// interned endpoint slots plus per-slot capacities and unfrozen counts.
// The topology extension (topo.go) adds per-flow uplink/downlink slots
// (-1 when a flow stays inside one edge switch) with per-slot link
// capacities; they stay empty on the single-crossbar path.
type denseFill struct {
	sidx, ridx []int32 // per flow: sender / receiver slot

	sndLeft, sndOrig []float64
	sndCount         []int32
	rcvLeft, rcvOrig []float64
	rcvCount         []int32

	uidx, didx     []int32 // per flow: uplink / downlink slot, -1 if intra-switch
	upLeft, upOrig []float64
	upCount        []int32
	dnLeft, dnOrig []float64
	dnCount        []int32

	frozen []bool
}

// reset empties the per-epoch state, keeping capacity.
func (d *denseFill) reset() {
	d.sidx = d.sidx[:0]
	d.ridx = d.ridx[:0]
	d.sndLeft = d.sndLeft[:0]
	d.sndOrig = d.sndOrig[:0]
	d.sndCount = d.sndCount[:0]
	d.rcvLeft = d.rcvLeft[:0]
	d.rcvOrig = d.rcvOrig[:0]
	d.rcvCount = d.rcvCount[:0]
	d.uidx = d.uidx[:0]
	d.didx = d.didx[:0]
	d.upLeft = d.upLeft[:0]
	d.upOrig = d.upOrig[:0]
	d.upCount = d.upCount[:0]
	d.dnLeft = d.dnLeft[:0]
	d.dnOrig = d.dnOrig[:0]
	d.dnCount = d.dnCount[:0]
	d.frozen = d.frozen[:0]
}

// run executes progressive filling over the prepared dense state. It is a
// line-for-line transliteration of referenceWaterFill's rounds — same
// loop order, same floating-point operations — so rates are bit-identical
// to the reference. sndCount/rcvCount must hold the number of flows per
// slot on entry; they are consumed (decremented as flows freeze).
func (d *denseFill) run(flows []*Flow, flowCap float64) {
	const relEps = 1e-9
	for _, f := range flows {
		f.Rate = 0
	}
	for range flows {
		d.frozen = append(d.frozen, false)
	}
	remaining := len(flows)
	for remaining > 0 {
		// Smallest headroom over all constraints touching unfrozen flows.
		inc := math.Inf(1)
		for i, f := range flows {
			if d.frozen[i] {
				continue
			}
			if h := flowCap - f.Rate; h < inc {
				inc = h
			}
			if si := d.sidx[i]; d.sndCount[si] > 0 {
				if h := d.sndLeft[si] / float64(d.sndCount[si]); h < inc {
					inc = h
				}
			}
			if ri := d.ridx[i]; d.rcvCount[ri] > 0 {
				if h := d.rcvLeft[ri] / float64(d.rcvCount[ri]); h < inc {
					inc = h
				}
			}
		}
		if math.IsInf(inc, 1) {
			break
		}
		if inc < 0 {
			inc = 0
		}
		// Apply the increment.
		for i, f := range flows {
			if d.frozen[i] {
				continue
			}
			f.Rate += inc
			d.sndLeft[d.sidx[i]] -= inc
			d.rcvLeft[d.ridx[i]] -= inc
		}
		// Freeze flows at saturated constraints (relative tolerance:
		// capacities are O(1e8) bytes/second, so absolute epsilons
		// misclassify rounding residue as headroom).
		progressed := false
		for i, f := range flows {
			if d.frozen[i] {
				continue
			}
			si, ri := d.sidx[i], d.ridx[i]
			if flowCap-f.Rate <= relEps*flowCap ||
				d.sndLeft[si] <= relEps*d.sndOrig[si] ||
				d.rcvLeft[ri] <= relEps*d.rcvOrig[ri] {
				d.frozen[i] = true
				d.sndCount[si]--
				d.rcvCount[ri]--
				remaining--
				progressed = true
			}
		}
		if !progressed {
			// inc was positive but nothing saturated exactly; numeric
			// safety valve to guarantee termination.
			break
		}
	}
}

// fillScratch bundles everything one allocation epoch needs: interners,
// the dense fill state and the coupled allocator's intermediate arrays.
// WaterFill draws one from a pool; each CoupledAllocator owns one.
type fillScratch struct {
	snd, rcv graph.Interner
	up, dn   graph.Interner // edge-switch slots for the topology extension
	d        denseFill

	effSend []float64 // per sender slot: coupling-adjusted capacity
	inflow  []float64 // per receiver slot: base inflow
	rxCap   []float64 // per receiver slot: fault-scaled receive capacity
}

func (s *fillScratch) begin() {
	s.snd.Begin()
	s.rcv.Begin()
	s.up.Begin()
	s.dn.Begin()
	s.d.reset()
	s.effSend = s.effSend[:0]
	s.inflow = s.inflow[:0]
	s.rxCap = s.rxCap[:0]
}

// maxPooledScratchLen bounds what fillPool retains: a scratch whose
// per-flow arrays or interner stamp tables grew beyond this (one huge
// transient scheme, or a scheme addressing a huge node id) is dropped on
// put instead of pinning its capacity forever. Steady workloads stay far
// below the cap, so they keep the zero-allocation fast path.
const maxPooledScratchLen = 1 << 14

// oversized reports whether the scratch has outgrown the pooling cap.
func (s *fillScratch) oversized() bool {
	return cap(s.d.sidx) > maxPooledScratchLen ||
		cap(s.effSend) > maxPooledScratchLen ||
		cap(s.inflow) > maxPooledScratchLen ||
		cap(s.rxCap) > maxPooledScratchLen ||
		s.snd.Span() > maxPooledScratchLen ||
		s.rcv.Span() > maxPooledScratchLen ||
		s.up.Span() > maxPooledScratchLen ||
		s.dn.Span() > maxPooledScratchLen
}
