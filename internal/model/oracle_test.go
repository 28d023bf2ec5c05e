package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bwshare/internal/graph"
	"bwshare/internal/schemes"
)

// The Definition 1 oracle: a per-communication transliteration of the
// Section V-A formulas over the graph's degree queries. It is the spec
// the production kernels (DensePenalties) are held to, bit for bit.

// oracleDegree computes DegreeModel penalties one communication at a
// time.
func oracleDegree(m DegreeModel, g *graph.Graph) []float64 {
	out := make([]float64, g.Len())
	for _, c := range g.Comms() {
		out[c.ID] = clampPenalty(maxf(oracleOut(m, g, c), oracleIn(m, g, c)))
	}
	return out
}

// oracleOut computes po for communication c.
func oracleOut(m DegreeModel, g *graph.Graph, c graph.Comm) float64 {
	do := g.OutDegree(c.Src)
	if do == 1 {
		return 1
	}
	// Cm_o: communications from the same source whose destination
	// in-degree is maximal.
	maxDi, card := 0, 0
	for _, id := range g.Sources(c.Src) {
		di := g.InDegree(g.Comm(id).Dst)
		switch {
		case di > maxDi:
			maxDi, card = di, 1
		case di == maxDi:
			card++
		}
	}
	base := float64(do) * m.Beta
	if g.InDegree(c.Dst) == maxDi {
		return base * (1 + m.GammaOut*float64(do-card))
	}
	return base * (1 - m.GammaOut/float64(card))
}

// oracleIn computes pi for communication c.
func oracleIn(m DegreeModel, g *graph.Graph, c graph.Comm) float64 {
	di := g.InDegree(c.Dst)
	if di == 1 {
		return 1
	}
	// Cm_i: communications to the same destination whose source
	// out-degree is maximal.
	maxDo, card := 0, 0
	for _, id := range g.Destinations(c.Dst) {
		do := g.OutDegree(g.Comm(id).Src)
		switch {
		case do > maxDo:
			maxDo, card = do, 1
		case do == maxDo:
			card++
		}
	}
	base := float64(di) * m.Beta
	if g.OutDegree(c.Src) == maxDo {
		return base * (1 + m.GammaIn*float64(di-card))
	}
	return base * (1 - m.GammaIn/float64(card))
}

// oracleKimLee is max(Δo(src), Δi(dst)) per communication.
func oracleKimLee(g *graph.Graph) []float64 {
	out := make([]float64, g.Len())
	for _, c := range g.Comms() {
		p := g.OutDegree(c.Src)
		if di := g.InDegree(c.Dst); di > p {
			p = di
		}
		out[c.ID] = clampPenalty(float64(p))
	}
	return out
}

// kernelCase pairs a kernel model with its oracle.
type kernelCase struct {
	name   string
	k      Kernel
	oracle func(*graph.Graph) []float64
}

func kernelCases() []kernelCase {
	gige, ib := NewGigE(), NewInfiniBand()
	// An off-calibration instance with large gammas drives the relieved
	// branch (1 - gamma/|Cm|) far from the calibrated values.
	wide := DegreeModel{ModelName: "wide", Beta: 0.9, GammaOut: 0.6, GammaIn: 0.45}
	return []kernelCase{
		{"gige", gige, func(g *graph.Graph) []float64 { return oracleDegree(gige, g) }},
		{"infiniband", ib, func(g *graph.Graph) []float64 { return oracleDegree(ib, g) }},
		{"wide", wide, func(g *graph.Graph) []float64 { return oracleDegree(wide, g) }},
		{"kimlee", KimLee{}, oracleKimLee},
		{"linear", Linear{}, func(g *graph.Graph) []float64 {
			out := make([]float64, g.Len())
			for i := range out {
				out[i] = 1
			}
			return out
		}},
	}
}

// denseRunner evaluates a kernel the way the serving path does: one
// reused Dense, endpoints interned by epoch-stamped graph.Interners.
type denseRunner struct {
	snd, rcv graph.Interner
	d        Dense
	out      []float64
}

func (r *denseRunner) run(k Kernel, g *graph.Graph) []float64 {
	r.snd.Begin()
	r.rcv.Begin()
	r.d.Src, r.d.Dst = r.d.Src[:0], r.d.Dst[:0]
	for i := 0; i < g.Len(); i++ {
		c := g.Comm(graph.CommID(i))
		s, _ := r.snd.Intern(int(c.Src))
		t, _ := r.rcv.Intern(int(c.Dst))
		r.d.Src = append(r.d.Src, s)
		r.d.Dst = append(r.d.Dst, t)
	}
	r.d.NumSrc, r.d.NumDst = r.snd.Len(), r.rcv.Len()
	r.out = append(r.out[:0], make([]float64, g.Len())...)
	k.DensePenalties(r.out, &r.d)
	return r.out
}

// checkKernel requires the graph adapter and a warm reused Dense to
// match the oracle exactly on g.
func checkKernel(t *testing.T, kc kernelCase, r *denseRunner, g *graph.Graph, what string) {
	t.Helper()
	want := kc.oracle(g)
	adapter := kc.k.(interface {
		Penalties(*graph.Graph) []float64
	}).Penalties(g)
	dense := r.run(kc.k, g)
	for i := range want {
		if math.Float64bits(adapter[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s/%s comm %d: adapter %.17g, oracle %.17g (%v)", kc.name, what, i, adapter[i], want[i], g)
		}
		if math.Float64bits(dense[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s/%s comm %d: dense %.17g, oracle %.17g (%v)", kc.name, what, i, dense[i], want[i], g)
		}
	}
}

// seededScheme draws a multigraph (duplicate edges allowed) of up to
// maxComms communications over nodes, offset by base so that sparse,
// high node ids exercise the interners.
func seededScheme(rng *rand.Rand, nodes, maxComms, base int) *graph.Graph {
	n := 1 + rng.Intn(maxComms)
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		src := rng.Intn(nodes)
		dst := (src + 1 + rng.Intn(nodes-1)) % nodes
		b.Add(fmt.Sprintf("c%d", i), graph.NodeID(base+src), graph.NodeID(base+dst), 1e6)
	}
	return b.MustBuild()
}

// TestKernelMatchesOracle holds every kernel to the Definition 1 oracle,
// bit for bit, over the scheme catalog and seeded schemes from dense
// crossbars to sparse schemes near the API's node-id limit. One runner
// serves every scheme, so stale scratch would show.
func TestKernelMatchesOracle(t *testing.T) {
	for _, kc := range kernelCases() {
		var r denseRunner
		for _, name := range schemes.Names() {
			g, _ := schemes.Named(name)
			checkKernel(t, kc, &r, g, name)
		}
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 600; i++ {
			var g *graph.Graph
			switch i % 4 {
			case 0: // small, heavily conflicted
				g = seededScheme(rng, 2+rng.Intn(5), 24, 0)
			case 1: // wide and sparse
				g = seededScheme(rng, 8+rng.Intn(120), 256, 0)
			case 2: // ids just below 1<<16
				g = seededScheme(rng, 2+rng.Intn(30), 64, 1<<16-32)
			default: // scattered ids
				g = seededScheme(rng, 2+rng.Intn(12), 48, rng.Intn(1<<20))
			}
			checkKernel(t, kc, &r, g, fmt.Sprintf("seeded-%d", i))
		}
	}
}

// TestDensePenaltiesZeroAllocs: a warm Dense makes every kernel
// allocation-free.
func TestDensePenaltiesZeroAllocs(t *testing.T) {
	g := seededScheme(rand.New(rand.NewSource(3)), 16, 200, 0)
	for _, kc := range kernelCases() {
		var r denseRunner
		r.run(kc.k, g)
		if a := testing.AllocsPerRun(20, func() { kc.k.DensePenalties(r.out, &r.d) }); a != 0 {
			t.Errorf("%s: DensePenalties allocates %.1f/op when warm", kc.name, a)
		}
	}
}

// decodeScheme turns fuzz bytes into a scheme. The first byte picks a
// node-id base (a multiple of 4096, so the interners see sparse ids);
// each following byte pair is one communication whose low nibbles name
// its source and destination in a 16-node space, a self-loop being
// redirected to the next node. At most 512 communications are read.
func decodeScheme(data []byte) *graph.Graph {
	if len(data) < 3 {
		return nil
	}
	base := int(data[0]) << 12
	b := graph.NewBuilder()
	for i := 1; i+1 < len(data) && i < 1+2*512; i += 2 {
		src := int(data[i] & 0x0f)
		dst := int(data[i+1] & 0x0f)
		if dst == src {
			dst = (src + 1) % 16
		}
		b.Add(fmt.Sprintf("c%d", i/2), graph.NodeID(base+src), graph.NodeID(base+dst), 1e6)
	}
	return b.MustBuild()
}

// FuzzDegreePenalties decodes bytes into a flow set and requires every
// kernel, through the adapter and through a reused Dense, to match the
// Definition 1 oracle exactly.
func FuzzDegreePenalties(f *testing.F) {
	f.Add([]byte{0, 0x01, 0x02, 0x03})
	f.Add([]byte{1, 0x01, 0x02, 0x03, 0x01, 0x21, 0x31})
	cases := kernelCases()
	var r denseRunner
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeScheme(data)
		if g == nil {
			return
		}
		for _, kc := range cases {
			checkKernel(t, kc, &r, g, "fuzz")
		}
	})
}
