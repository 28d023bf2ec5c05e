package netsim

import (
	"math"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/topology"
)

// Topology-aware allocation: on a multi-switch fabric, every flow whose
// endpoints live on different edge switches additionally consumes shared
// capacity on its source switch's uplink (up direction) and its
// destination switch's downlink (down direction). The constraints join
// progressive filling symmetrically with the per-NIC ones, so the
// resulting rates are the max-min fair allocation under NICs, per-flow
// caps and fabric links together.
//
// The dense path mirrors dense.go: edge-switch ids are interned to
// slots, per-slot state lives in the reusable fillScratch arrays, and a
// steady-state allocation does zero heap allocation. Under a trivial
// (single-crossbar) topology none of this code runs — the callers branch
// to the exact PR-2 code path, so crossbar results are bit-identical to
// the topology-free ones by construction (and proven by topo_test.go).

// prepTopoLinks interns the edge switches touched by inter-switch flows
// and fills the per-flow uplink/downlink slot arrays. linkCap is the
// per-direction capacity of one healthy uplink; fs (nil for a healthy
// fabric) scales each switch's uplink by its fault factor, in both
// directions. Counts are the initial unfrozen flow counts per link,
// consumed by runTopo.
func prepTopoLinks(sc *fillScratch, flows []*Flow, topo topology.Spec, linkCap float64, fs *fault.State) {
	d := &sc.d
	for _, f := range flows {
		ss, ds := topo.SwitchOf(f.Src), topo.SwitchOf(f.Dst)
		if ss == ds {
			d.uidx = append(d.uidx, -1)
			d.didx = append(d.didx, -1)
			continue
		}
		ui, fresh := sc.up.Intern(ss)
		if fresh {
			c := linkCap * fs.LinkFactor(ss)
			d.upLeft = append(d.upLeft, c)
			d.upOrig = append(d.upOrig, c)
			d.upCount = append(d.upCount, 0)
		}
		d.upCount[ui]++
		d.uidx = append(d.uidx, ui)
		di, fresh := sc.dn.Intern(ds)
		if fresh {
			c := linkCap * fs.LinkFactor(ds)
			d.dnLeft = append(d.dnLeft, c)
			d.dnOrig = append(d.dnOrig, c)
			d.dnCount = append(d.dnCount, 0)
		}
		d.dnCount[di]++
		d.didx = append(d.didx, di)
	}
}

// runTopo is run (dense.go) extended with the uplink/downlink
// constraints prepared by prepTopoLinks. The shared structure — loop
// order, floating-point operations, relative saturation tolerance — is
// identical, so with no inter-switch flows (every uidx/didx -1) the
// rates are bit-identical to run's.
func (d *denseFill) runTopo(flows []*Flow, flowCap float64) {
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
			if ui := d.uidx[i]; ui >= 0 && d.upCount[ui] > 0 {
				if h := d.upLeft[ui] / float64(d.upCount[ui]); h < inc {
					inc = h
				}
			}
			if di := d.didx[i]; di >= 0 && d.dnCount[di] > 0 {
				if h := d.dnLeft[di] / float64(d.dnCount[di]); h < inc {
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
			if ui := d.uidx[i]; ui >= 0 {
				d.upLeft[ui] -= inc
			}
			if di := d.didx[i]; di >= 0 {
				d.dnLeft[di] -= inc
			}
		}
		// Freeze flows at saturated constraints.
		progressed := false
		for i, f := range flows {
			if d.frozen[i] {
				continue
			}
			si, ri := d.sidx[i], d.ridx[i]
			sat := flowCap-f.Rate <= relEps*flowCap ||
				d.sndLeft[si] <= relEps*d.sndOrig[si] ||
				d.rcvLeft[ri] <= relEps*d.rcvOrig[ri]
			ui, di := d.uidx[i], d.didx[i]
			if !sat && ui >= 0 {
				sat = d.upLeft[ui] <= relEps*d.upOrig[ui] ||
					d.dnLeft[di] <= relEps*d.dnOrig[di]
			}
			if sat {
				d.frozen[i] = true
				d.sndCount[si]--
				d.rcvCount[ri]--
				if ui >= 0 {
					d.upCount[ui]--
					d.dnCount[di]--
				}
				remaining--
				progressed = true
			}
		}
		if !progressed {
			// Numeric safety valve, as in run.
			break
		}
	}
}

// runCaps is progressive filling under per-flow caps and the fabric
// links only — no per-NIC constraints. It is the second phase of
// TopoFiller: caps[i] is the rate flow i would get on a crossbar (from
// a penalty model), and the fabric can only lower it. Flows that do not
// cross switches reach their cap exactly.
func (d *denseFill) runCaps(flows []*Flow, caps []float64) {
	const relEps = 1e-9
	for _, f := range flows {
		f.Rate = 0
	}
	for range flows {
		d.frozen = append(d.frozen, false)
	}
	remaining := len(flows)
	for remaining > 0 {
		inc := math.Inf(1)
		for i := range flows {
			if d.frozen[i] {
				continue
			}
			if h := caps[i] - flows[i].Rate; h < inc {
				inc = h
			}
			if ui := d.uidx[i]; ui >= 0 && d.upCount[ui] > 0 {
				if h := d.upLeft[ui] / float64(d.upCount[ui]); h < inc {
					inc = h
				}
			}
			if di := d.didx[i]; di >= 0 && d.dnCount[di] > 0 {
				if h := d.dnLeft[di] / float64(d.dnCount[di]); h < inc {
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
		for i, f := range flows {
			if d.frozen[i] {
				continue
			}
			f.Rate += inc
			if ui := d.uidx[i]; ui >= 0 {
				d.upLeft[ui] -= inc
			}
			if di := d.didx[i]; di >= 0 {
				d.dnLeft[di] -= inc
			}
		}
		progressed := false
		for i, f := range flows {
			if d.frozen[i] {
				continue
			}
			sat := caps[i]-f.Rate <= relEps*caps[i]
			ui, di := d.uidx[i], d.didx[i]
			if !sat && ui >= 0 {
				sat = d.upLeft[ui] <= relEps*d.upOrig[ui] ||
					d.dnLeft[di] <= relEps*d.dnOrig[di]
			}
			if sat {
				d.frozen[i] = true
				if ui >= 0 {
					d.upCount[ui]--
					d.dnCount[di]--
				}
				remaining--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
}

// WaterFillTopo is WaterFill with the fabric's uplink constraints: flows
// crossing edge switches additionally share the per-direction uplink
// capacity topo.UplinkCap(hostRate). A trivial topology is exactly
// WaterFill (bit-identical). Zero heap allocation in steady state.
func WaterFillTopo(flows []*Flow, flowCap float64, senderCap, recvCap map[graph.NodeID]float64, defSend, defRecv float64, topo topology.Spec, hostRate float64) {
	if topo.Trivial() {
		WaterFill(flows, flowCap, senderCap, recvCap, defSend, defRecv)
		return
	}
	if len(flows) == 0 {
		return
	}
	if !denseOK(flows) {
		referenceWaterFillTopo(flows, flowCap, senderCap, recvCap, defSend, defRecv, topo, hostRate, nil)
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
	prepTopoLinks(sc, flows, topo, topo.UplinkCap(hostRate), nil)
	d.runTopo(flows, flowCap)
	putFillScratch(sc)
}

// TopoFiller imposes a fabric's uplink capacities on flow rates computed
// by a crossbar-level allocator (a penalty model): the incoming
// Flow.Rate values become per-flow caps and the rates are re-derived by
// max-min progressive filling under those caps plus the shared uplinks.
// Intra-switch flows keep their rate exactly. The zero value is ready to
// use; scratch is reused, so steady-state Apply calls allocate nothing.
// A TopoFiller is not safe for concurrent use.
type TopoFiller struct {
	// Faults, when non-nil, scales each uplink's capacity by the
	// overlay's per-switch factor (both directions). Host factors are the
	// crossbar-level allocator's concern; the filler only owns links.
	Faults *fault.State

	scr  fillScratch
	caps []float64
}

// Apply rewrites the rates of flows in place. hostRate is the access
// rate a single host can drive (the uplink capacity derives from it via
// topo.UplinkCap). A trivial topology leaves the rates untouched.
func (tf *TopoFiller) Apply(flows []*Flow, topo topology.Spec, hostRate float64) {
	if topo.Trivial() || len(flows) == 0 {
		return
	}
	sc := &tf.scr
	sc.begin()
	tf.caps = tf.caps[:0]
	for _, f := range flows {
		tf.caps = append(tf.caps, f.Rate)
	}
	prepTopoLinks(sc, flows, topo, topo.UplinkCap(hostRate), tf.Faults)
	sc.d.runCaps(flows, tf.caps)
}
