package fault

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// denseStep is one change point of denseTimeline.
type denseStep struct {
	at         float64
	link, host []float64
	changed    []Target
}

// denseTimeline is the dense oracle for Compile: at every distinct
// change time after t=0 it evaluates a full snapshot of every link and
// host factor, keeping the change points whose snapshot differs from
// the last one kept. The first entry (at 0) is the initial state.
func denseTimeline(sched Schedule) []denseStep {
	nLink, nHost := 0, 0
	for _, e := range sched.Events {
		if e.Kind == HostSlow {
			nHost = max(nHost, e.Target+1)
		} else {
			nLink = max(nLink, e.Target+1)
		}
	}
	at := func(t float64) denseStep {
		sn := denseStep{at: t, link: make([]float64, nLink), host: make([]float64, nHost)}
		for i := range sn.link {
			sn.link[i] = 1
		}
		for i := range sn.host {
			sn.host[i] = 1
		}
		for _, e := range sched.Events {
			if !e.activeAt(t) {
				continue
			}
			if e.Kind == HostSlow {
				sn.host[e.Target] *= e.Factor
			} else {
				sn.link[e.Target] *= e.Factor
			}
		}
		return sn
	}
	var times []float64
	for _, e := range sched.Events {
		for _, t := range []float64{e.At, e.Until} {
			if t > 0 && !slices.Contains(times, t) {
				times = append(times, t)
			}
		}
	}
	sort.Float64s(times)
	out := []denseStep{at(0)}
	for _, t := range times {
		sn, prev := at(t), out[len(out)-1]
		for i := range sn.link {
			if sn.link[i] != prev.link[i] {
				sn.changed = append(sn.changed, Target{TargetLink, i})
			}
		}
		for i := range sn.host {
			if sn.host[i] != prev.host[i] {
				sn.changed = append(sn.changed, Target{TargetHost, i})
			}
		}
		if len(sn.changed) > 0 {
			out = append(out, sn)
		}
	}
	return out
}

// randomSchedule draws a valid schedule over a few links and hosts, on a
// coarse time grid so that injections, repairs and overlaps coincide.
func randomSchedule(rng *rand.Rand) Schedule {
	factors := []float64{0, 0.25, 0.5, 0.75, 1}
	n := 1 + rng.IntN(12)
	var s Schedule
	for range n {
		e := Event{Kind: Kind(rng.IntN(3)), Target: rng.IntN(4)}
		if e.Kind != LinkDown {
			e.Factor = factors[rng.IntN(len(factors))]
			if rng.IntN(3) == 0 {
				e.Factor = rng.Float64()
			}
		}
		e.At = float64(rng.IntN(8)-2) / 4
		if rng.IntN(4) != 0 {
			e.Until = e.At + float64(1+rng.IntN(6))/4
		}
		s.Events = append(s.Events, e)
	}
	return s
}

// checkState compares the timeline's state with a dense snapshot, bit
// for bit, over every tracked link and host.
func checkState(t *testing.T, sched Schedule, st *State, want denseStep, where string) {
	t.Helper()
	for i, f := range want.link {
		if got := st.LinkFactor(i); math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("%s: link %d factor %v, oracle %v\nschedule:\n%s", where, i, got, f, sched.Canonical())
		}
	}
	for i, f := range want.host {
		if got := st.HostFactor(i); math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("%s: host %d factor %v, oracle %v\nschedule:\n%s", where, i, got, f, sched.Canonical())
		}
	}
}

// TestCompileMatchesDenseOracle: over random schedules, the compiled
// timeline visits the oracle's change points in order, reports the same
// changed targets at each, and leaves the same factors in its state —
// including after a Rewind.
func TestCompileMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0))
	for iter := range 5000 {
		sched := randomSchedule(rng)
		want := denseTimeline(sched)
		tl := Compile(sched)
		if tl.Steps() != len(want)-1 {
			t.Fatalf("iter %d: %d steps, oracle %d\nschedule:\n%s", iter, tl.Steps(), len(want)-1, sched.Canonical())
		}
		for pass := range 2 {
			tl.Rewind()
			checkState(t, sched, tl.State(), want[0], "initial state")
			for _, w := range want[1:] {
				at, ok := tl.Next()
				if !ok || at != w.at {
					t.Fatalf("iter %d pass %d: next change at %v (%v), oracle %v", iter, pass, at, ok, w.at)
				}
				if got := tl.Step(); !slices.Equal(got, w.changed) {
					t.Fatalf("iter %d pass %d at %v: changed %v, oracle %v\nschedule:\n%s",
						iter, pass, w.at, got, w.changed, sched.Canonical())
				}
				checkState(t, sched, tl.State(), w, "after step")
			}
			if _, ok := tl.Next(); ok {
				t.Fatalf("iter %d: steps beyond the oracle's", iter)
			}
		}
	}
}

// TestCompileMemoryBoundedByChanges: 256 disjoint slowdowns of the
// largest admitted host compile into a few MiB, not one full host table
// per change point.
func TestCompileMemoryBoundedByChanges(t *testing.T) {
	const host = 1<<16 - 1
	var sched Schedule
	for i := range 256 {
		at := float64(2*i+1) * 1e-3
		sched.Events = append(sched.Events, Event{Kind: HostSlow, Target: host, Factor: 0.5, At: at, Until: at + 1e-3})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tl := Compile(sched)
	runtime.ReadMemStats(&after)
	if tl.Steps() != 512 {
		t.Fatalf("%d steps, want 512", tl.Steps())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("Compile allocated %d bytes, want < 4 MiB", got)
	}
}
