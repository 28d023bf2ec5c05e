package model

import (
	"bwshare/internal/graph"
)

// DegreeModel is the quantitative penalty model of Section V-A,
// parameterized by (Beta, GammaOut, GammaIn). The paper instantiates it
// for Gigabit Ethernet; the InfiniBand instance is our calibrated
// extension of the same formulas.
//
// For a communication ci from vs to vd with out-degree do = delta_o(vs)
// and in-degree di = delta_i(vd):
//
//	po = 1                                              if do == 1
//	po = do*beta*(1 + gamma_o*(do - |Cm_o|))            if ci in Cm_o
//	po = do*beta*(1 - gamma_o/|Cm_o|)                   otherwise
//
// where Cm_o is the subset of communications leaving vs whose destination
// in-degree is maximal ("strongly slowed outgoing communications",
// Definition 1). pi is symmetric with (di, gamma_i, Cm_i) where Cm_i is
// the subset of communications entering vd whose source out-degree is
// maximal. The penalty is p = max(po, pi).
type DegreeModel struct {
	ModelName string
	// Beta is the resource-sharing penalty slope: k same-NIC flows cost
	// about k*Beta each. Estimated from simple outgoing conflicts.
	Beta float64
	// GammaOut weights how much the strongly slowed outgoing
	// communications are further penalized (and the others relieved).
	GammaOut float64
	// GammaIn is the incoming-side analogue of GammaOut.
	GammaIn float64
}

// NewGigE returns the Gigabit Ethernet model with the paper's calibrated
// parameters: beta = 0.75 (Figure 2), gamma_o = 0.115 and gamma_i = 0.036
// (Figure 4).
func NewGigE() DegreeModel {
	return DegreeModel{ModelName: "gige", Beta: 0.75, GammaOut: 0.115, GammaIn: 0.036}
}

// NewInfiniBand returns the Infinihost III degree model, calibrated from
// the Figure 2 InfiniBand column with the paper's own procedure (the
// paper announces this model as future work; see README.md).
func NewInfiniBand() DegreeModel {
	return DegreeModel{ModelName: "infiniband", Beta: 0.8625, GammaOut: 0.207, GammaIn: 0.339}
}

// Name implements core.Model.
func (m DegreeModel) Name() string {
	if m.ModelName == "" {
		return "degree"
	}
	return m.ModelName
}

// Penalties implements core.Model: the graph adapter over
// DensePenalties.
func (m DegreeModel) Penalties(g *graph.Graph) []float64 {
	return viaKernel(m, g)
}

// DensePenalties implements Kernel: p = max(po, pi) per communication,
// with po and pi as in the type comment, in O(len(d.Src)) time.
func (m DegreeModel) DensePenalties(out []float64, d *Dense) {
	d.degrees()
	d.strongSets()
	for i, s := range d.Src {
		t := d.Dst[i]
		do, di := d.outDeg[s], d.inDeg[t]
		po := 1.0
		if do != 1 {
			base := float64(do) * m.Beta
			if di == d.maxIn[s] {
				po = base * (1 + m.GammaOut*float64(do-d.cardO[s]))
			} else {
				po = base * (1 - m.GammaOut/float64(d.cardO[s]))
			}
		}
		pi := 1.0
		if di != 1 {
			base := float64(di) * m.Beta
			if do == d.maxOut[t] {
				pi = base * (1 + m.GammaIn*float64(di-d.cardI[t]))
			} else {
				pi = base * (1 - m.GammaIn/float64(d.cardI[t]))
			}
		}
		out[i] = clampPenalty(maxf(po, pi))
	}
}
