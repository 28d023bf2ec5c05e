package netsim

import (
	"math"
	"strings"
	"testing"

	"bwshare/internal/core"
	"bwshare/internal/fault"
)

// Fault change points that land within float rounding of a completion:
// integrating up to the change point leaves the due flow at zero bytes,
// and the engine must reap it there instead of handing it to the next
// reallocation.

// finishedGuard runs every flow at a fixed rate and counts the finished
// flows (at or under completionEps bytes) it is ever handed.
type finishedGuard struct {
	rate     float64
	finished int
}

func (a *finishedGuard) Allocate(flows []*Flow) {
	for _, f := range flows {
		if f.Remaining <= completionEps {
			a.finished++
		}
		f.Rate = a.rate
	}
}

// boundaryCase is the sweep point k: flow 0 (0->1) finishes alone at
// vol/rate, flow 1 (2->3) carries 1.37x the volume, and a host slowdown
// on host 3 starts ulps ulps before flow 0's completion.
func boundaryCase(k, ulps int, rate float64) (vol float64, sched fault.Schedule) {
	vol = 1e6 + float64(k)*977.3
	at := vol / rate
	for i := 0; i < ulps; i++ {
		at = math.Nextafter(at, 0)
	}
	ev := fault.Event{Kind: fault.HostSlow, Target: 3, Factor: 0.5, At: at, Until: 2 * at}
	return vol, fault.Schedule{Events: []fault.Event{ev}}
}

// TestAdvanceReapsAtFaultChangePoint: across the sweep, every flow is
// reported exactly once, flow 0 no later than its own completion time,
// and the allocator never sees a finished flow.
func TestAdvanceReapsAtFaultChangePoint(t *testing.T) {
	const rate = 1.17e8
	atChange := 0
	for k := 1; k < 4000; k++ {
		for ulps := 1; ulps <= 2; ulps++ {
			vol, sched := boundaryCase(k, ulps, rate)
			a := &finishedGuard{rate: rate}
			e := NewFluidEngine("guard", rate, a)
			tl := fault.Compile(sched)
			e.SetFaults(tl)
			e.StartFlow(0, 1, vol, 0)
			e.StartFlow(2, 3, 1.37*vol, 0)
			var got []core.Completion
			for len(got) < 2 {
				done, _ := e.Advance(core.Inf)
				if len(done) == 0 {
					t.Fatalf("k=%d ulps=%d: stalled after %v", k, ulps, got)
				}
				got = append(got, done...)
			}
			if done, _ := e.Advance(core.Inf); len(done) != 0 {
				t.Fatalf("k=%d ulps=%d: extra completions %v", k, ulps, done)
			}
			if a.finished != 0 {
				t.Fatalf("k=%d ulps=%d: allocator saw %d finished flows", k, ulps, a.finished)
			}
			if got[0].Flow != 0 || got[1].Flow != 1 {
				t.Fatalf("k=%d ulps=%d: completion order %v", k, ulps, got)
			}
			tf := sched.Events[0].At
			if te := vol / rate; got[0].Time != te && got[0].Time != tf {
				t.Fatalf("k=%d ulps=%d: flow 0 done at %.17g, want %.17g or change point %.17g", k, ulps, got[0].Time, te, tf)
			}
			if got[0].Time == tf {
				atChange++
			}
		}
	}
	if atChange == 0 {
		t.Fatal("sweep never finished a flow at a change point; it no longer covers the boundary")
	}
}

// TestStartFlowFaultBoundaryIsSkippedCompletion: a driver that starts a
// flow past such a change point without advancing first has skipped the
// completion there. The engine reports that driver bug, however the
// rounding falls, and never hands the finished flow to its allocator.
func TestStartFlowFaultBoundaryIsSkippedCompletion(t *testing.T) {
	const rate = 1.17e8
	for k := 1; k < 4000; k++ {
		vol, sched := boundaryCase(k, 1, rate)
		a := &finishedGuard{rate: rate}
		e := NewFluidEngine("guard", rate, a)
		e.SetFaults(fault.Compile(sched))
		e.StartFlow(0, 1, vol, 0)
		e.StartFlow(2, 3, 1.37*vol, 0)
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, "skips completion") {
					t.Fatalf("k=%d: StartFlow past the change point: recovered %v, want a skipped-completion panic", k, r)
				}
			}()
			e.StartFlow(4, 5, vol, 1.5*vol/rate)
		}()
		if a.finished != 0 {
			t.Fatalf("k=%d: allocator saw %d finished flows", k, a.finished)
		}
	}
}
