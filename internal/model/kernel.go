package model

import "bwshare/internal/graph"

// Dense is a communication set laid out for the penalty kernels:
// communication i runs from source slot Src[i] in [0, NumSrc) to
// destination slot Dst[i] in [0, NumDst), one slot per distinct node.
// The two slot spaces are independent, since the degree models read a
// node's out-degree only where it sends and its in-degree only where it
// receives; a slot no communication uses is harmless. The unexported
// per-slot tables are kernel scratch: a Dense reused across calls
// allocates nothing once they have grown, and every table is sized by
// slots, never by node ids.
type Dense struct {
	Src, Dst       []int32
	NumSrc, NumDst int

	outDeg, inDeg []int32 // Δo per source slot, Δi per destination slot
	maxIn, cardO  []int32 // per source slot: max Δi among its destinations, |Cm_o|
	maxOut, cardI []int32 // per destination slot: max Δo among its sources, |Cm_i|
}

// Kernel is implemented by the models whose penalties depend only on
// conflict degrees (DegreeModel, KimLee, Linear). DensePenalties writes
// the penalty of communication i of d into out[i]; out must hold
// len(d.Src) entries. Once d's scratch is warm it allocates nothing.
type Kernel interface {
	DensePenalties(out []float64, d *Dense)
}

var (
	_ Kernel = DegreeModel{}
	_ Kernel = KimLee{}
	_ Kernel = Linear{}
)

// denseOf lays g out as a Dense, slotting each endpoint by its position
// in g's sorted node set, so any node id works. The slot lists and the
// kernel scratch share one allocation.
func denseOf(g *graph.Graph) *Dense {
	n, v := g.Len(), g.NumNodes()
	buf := make([]int32, 2*n+6*v)
	next := func(k int) []int32 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	d := &Dense{Src: next(n), Dst: next(n), NumSrc: v, NumDst: v}
	d.outDeg, d.inDeg, d.maxIn, d.cardO, d.maxOut, d.cardI = next(v), next(v), next(v), next(v), next(v), next(v)
	for i := range d.Src {
		c := g.Comm(graph.CommID(i))
		d.Src[i], d.Dst[i] = int32(g.NodeIndex(c.Src)), int32(g.NodeIndex(c.Dst))
	}
	return d
}

// viaKernel is the graph adapter shared by the kernel models.
func viaKernel(k Kernel, g *graph.Graph) []float64 {
	out := make([]float64, g.Len())
	k.DensePenalties(out, denseOf(g))
	return out
}

// zeroed returns buf resized to n and cleared, reallocating only when
// capacity lacks.
func zeroed(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// degrees counts Δo and Δi per slot.
func (d *Dense) degrees() {
	d.outDeg = zeroed(d.outDeg, d.NumSrc)
	d.inDeg = zeroed(d.inDeg, d.NumDst)
	for i, s := range d.Src {
		d.outDeg[s]++
		d.inDeg[d.Dst[i]]++
	}
}

// strongSets records, per source slot, the largest destination in-degree
// among its communications and how many reach it (the cardinality of
// Cm_o, Definition 1), and symmetrically per destination slot for Cm_i.
// degrees must have run.
func (d *Dense) strongSets() {
	d.maxIn = zeroed(d.maxIn, d.NumSrc)
	d.cardO = zeroed(d.cardO, d.NumSrc)
	d.maxOut = zeroed(d.maxOut, d.NumDst)
	d.cardI = zeroed(d.cardI, d.NumDst)
	for i, s := range d.Src {
		t := d.Dst[i]
		switch di := d.inDeg[t]; {
		case di > d.maxIn[s]:
			d.maxIn[s], d.cardO[s] = di, 1
		case di == d.maxIn[s]:
			d.cardO[s]++
		}
		switch do := d.outDeg[s]; {
		case do > d.maxOut[t]:
			d.maxOut[t], d.cardI[t] = do, 1
		case do == d.maxOut[t]:
			d.cardI[t]++
		}
	}
}
