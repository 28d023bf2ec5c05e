package predict

import (
	"math"
	"strings"
	"testing"

	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/model"
	"bwshare/internal/schemes"
	"bwshare/internal/topology"
)

// loneFlow is a single 4 MB transfer 0 -> 5, which on the 4x4 test
// fabrics crosses switches under block placement.
func loneFlow(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.NewBuilder().Add("a", 0, 5, 4e6).Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFaultedSessionEmptyScheduleIsHealthy: the zero schedule must be
// the healthy session, bit for bit.
func TestFaultedSessionEmptyScheduleIsHealthy(t *testing.T) {
	g := schemes.Fig4()
	s, err := NewSessionWithFaults(model.NewGigE(), fig4RefRate, topology.Spec{}, fault.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	a := append([]float64(nil), s.Times(g)...)
	b := NewSession(model.NewGigE(), fig4RefRate).Times(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("comm %d: faulted-empty %.17g healthy %.17g", i, a[i], b[i])
		}
	}
}

// TestFaultedSessionHostSlowCapsRate: a lone flow runs at penalty 1 =
// refRate; halving its sender's NIC from t=0 must exactly double the
// predicted time (0.5 is a power of two, so the doubling is exact).
func TestFaultedSessionHostSlowCapsRate(t *testing.T) {
	g := loneFlow(t)
	sched := fault.Schedule{Events: []fault.Event{{Kind: fault.HostSlow, Target: 0, Factor: 0.5, At: 0}}}
	s, err := NewSessionWithFaults(model.NewGigE(), fig4RefRate, topology.Spec{}, sched)
	if err != nil {
		t.Fatal(err)
	}
	faulted := s.Times(g)[0]
	healthy := NewSession(model.NewGigE(), fig4RefRate).Times(g)[0]
	if faulted != 2*healthy {
		t.Fatalf("slowed time %.17g, want exactly 2x healthy %.17g", faulted, healthy)
	}
}

// TestFaultedSessionMidReplayFault: a slowdown landing mid-transfer
// splits the replay into two constant-rate segments; the predicted time
// must be the piecewise sum computed with the same operations.
func TestFaultedSessionMidReplayFault(t *testing.T) {
	g := loneFlow(t)
	healthy := NewSession(model.NewGigE(), fig4RefRate).Times(g)[0]
	t1 := healthy / 2
	sched := fault.Schedule{Events: []fault.Event{{Kind: fault.HostSlow, Target: 5, Factor: 0.25, At: t1}}}
	s, err := NewSessionWithFaults(model.NewGigE(), fig4RefRate, topology.Spec{}, sched)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Times(g)[0]
	rem := 4e6 - fig4RefRate*t1
	want := t1 + rem/(fig4RefRate*0.25)
	if got != want {
		t.Fatalf("mid-replay faulted time %.17g, want piecewise %.17g", got, want)
	}
}

// TestFaultedSessionLinkDownDelaysCrossTraffic: on a fabric, downing
// the sender's edge switch stalls a cross-switch flow until the repair.
func TestFaultedSessionLinkDownDelaysCrossTraffic(t *testing.T) {
	topo := topology.Spec{Kind: topology.Star, Switches: 4, HostsPerSwitch: 4, Place: topology.Block}
	g := loneFlow(t) // 0 -> 5 spans switches 0 and 1 under block placement
	const t1, t2 = 0.01, 0.5
	sched := fault.Schedule{Events: []fault.Event{{Kind: fault.LinkDown, Target: 0, At: t1, Until: t2}}}
	s, err := NewSessionWithFaults(model.NewGigE(), fig4RefRate, topo, sched)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Times(g)[0]
	if got <= t2 {
		t.Fatalf("cross-switch flow finished at %g, inside the outage ending %g", got, t2)
	}
	// The session replays the same schedule on every call.
	if again := s.Times(g)[0]; again != got {
		t.Fatalf("second replay diverged: %.17g vs %.17g", again, got)
	}
}

// TestFaultedSessionRejections: schedules that cannot apply to the
// fabric, and schedules with no finite prediction, fail up front.
func TestFaultedSessionRejections(t *testing.T) {
	cases := []struct {
		name  string
		topo  topology.Spec
		sched fault.Schedule
		want  string
	}{
		{
			"link fault on crossbar",
			topology.Spec{},
			fault.Schedule{Events: []fault.Event{{Kind: fault.LinkDown, Target: 0, At: 1, Until: 2}}},
			"no uplinks",
		},
		{
			"permanent link down",
			topology.Spec{Kind: topology.Star, Switches: 4, HostsPerSwitch: 4},
			fault.Schedule{Events: []fault.Event{{Kind: fault.LinkDown, Target: 0, At: 1}}},
			"permanent zero-capacity",
		},
		{
			"permanent zero host slowdown",
			topology.Spec{},
			fault.Schedule{Events: []fault.Event{{Kind: fault.HostSlow, Target: 0, Factor: 0, At: 1}}},
			"permanent zero-capacity",
		},
	}
	for _, c := range cases {
		if _, err := NewSessionWithFaults(model.NewGigE(), fig4RefRate, c.topo, c.sched); err == nil {
			t.Errorf("%s: no error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestFaultedSessionChangePointAtCompletion sweeps host slowdowns that
// start one or two ulps before a lone flow's completion, where
// integrating to the change point leaves that flow at exactly zero
// bytes. Sequential sessions on the GigE model, on Myrinet's graph path
// and on a fat-tree must all predict without panicking, finishing the
// flow at its completion time or at the change point.
func TestFaultedSessionChangePointAtCompletion(t *testing.T) {
	fatTree := topology.Spec{Kind: topology.FatTree, Switches: 4, HostsPerSwitch: 4, Oversub: 2, Place: topology.RoundRobin}
	sessions := []struct {
		name  string
		model string
		topo  topology.Spec
	}{
		{"gige", "gige", topology.Spec{}},
		{"myrinet", "myrinet", topology.Spec{}},
		{"fattree", "gige", fatTree},
	}
	for _, sc := range sessions {
		m, sub, err := LookupModel(sc.model)
		if err != nil {
			t.Fatal(err)
		}
		ref := sub.RefRate()
		atChange := 0
		for k := 1; k < 4000; k++ {
			vol := 1e6 + float64(k)*977.3
			g := graph.NewBuilder().Add("a", 0, 1, vol).Add("b", 2, 3, 1.37*vol).MustBuild()
			at := vol / ref
			for ulps := 1; ulps <= 2; ulps++ {
				at = math.Nextafter(at, 0)
				sched := fault.Schedule{Events: []fault.Event{{Kind: fault.HostSlow, Target: 3, Factor: 0.5, At: at, Until: 2 * at}}}
				s, err := NewSessionWithFaults(m, ref, sc.topo, sched)
				if err != nil {
					t.Fatal(err)
				}
				var times []float64
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s k=%d ulps=%d: %v", sc.name, k, ulps, r)
						}
					}()
					times = s.Times(g)
				}()
				if te := vol / ref; times[0] != te && times[0] != at {
					t.Fatalf("%s k=%d ulps=%d: flow a done at %.17g, want %.17g or change point %.17g", sc.name, k, ulps, times[0], te, at)
				}
				if times[0] == at {
					atChange++
				}
				if !(times[1] > times[0]) {
					t.Fatalf("%s k=%d ulps=%d: flow b done at %.17g, before flow a at %.17g", sc.name, k, ulps, times[1], times[0])
				}
			}
		}
		if atChange == 0 {
			t.Fatalf("%s: no flow finished at a change point; the sweep no longer covers the boundary", sc.name)
		}
	}
}
