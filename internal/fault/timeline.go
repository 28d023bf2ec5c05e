package fault

import "sort"

// TargetKind distinguishes the two fabric resources a fault can touch.
type TargetKind uint8

// Target kinds.
const (
	// TargetLink is an edge switch's uplink (both directions).
	TargetLink TargetKind = iota
	// TargetHost is one host's NIC (send and receive).
	TargetHost
)

// Target names one fabric resource whose capacity factor changed.
type Target struct {
	Kind TargetKind
	ID   int
}

// State is the mutable capacity overlay the allocators read: one factor
// per edge switch uplink and one per host NIC, each in [0, 1]. A nil
// State, or any index beyond the tracked range, reads as the healthy
// factor 1 — multiplying a capacity by exactly 1.0 is IEEE-exact, so the
// no-fault paths stay bit-identical with unconditional multiplies.
//
// A State is owned and mutated in place by its Timeline; allocators
// holding the pointer observe every Step without re-wiring.
type State struct {
	link []float64
	host []float64
}

// LinkFactor returns the capacity factor of switch sw's uplink.
func (s *State) LinkFactor(sw int) float64 {
	if s == nil || sw < 0 || sw >= len(s.link) {
		return 1
	}
	return s.link[sw]
}

// HostFactor returns the capacity factor of host h's NIC.
func (s *State) HostFactor(h int) float64 {
	if s == nil || h < 0 || h >= len(s.host) {
		return 1
	}
	return s.host[h]
}

// set writes target t's factor.
func (s *State) set(t Target, f float64) {
	if t.Kind == TargetLink {
		s.link[t.ID] = f
	} else {
		s.host[t.ID] = f
	}
}

// step is one change point of the compiled timeline: the targets whose
// factor changed and, index for index, their new factors.
type step struct {
	at      float64
	changed []Target
	factors []float64
}

// Timeline is a Schedule compiled against nothing but itself: the
// initial state (faults at or before t=0 folded in) plus a sorted
// sequence of change points, one per distinct change time after t=0.
//
// Compilation resolves overlaps by multiplying the factors of every
// event active at each instant, so a double failure of the same link
// stays down until the *last* repair. Each step stores only the targets
// whose factor changed and their new factors, so a compiled timeline
// takes memory proportional to the number of changes, plus the State's
// one factor per switch and host up to the largest target. The changed
// targets are also what the incremental allocator uses to dirty only
// the affected constraint components.
//
// Rewind and Step mutate the shared State in place and allocate
// nothing, so a rewind/step/allocate cycle runs at 0 allocs/op.
type Timeline struct {
	state   State
	targets []Target // every target some event names
	init    step     // factors at t=0 that differ from healthy
	steps   []step
	cursor  int
}

// Compile builds the timeline for a schedule. The schedule must already
// be validated; Compile only sizes the factor tables off the largest
// target index it sees. Compiling the empty schedule yields a timeline
// with no steps and all-healthy state. A factor of -0 compiles as 0.
func Compile(sched Schedule) *Timeline {
	// Group the events by target, each group in schedule order, so a
	// target's factor is the same product, in the same order, whenever
	// it is evaluated.
	tl := &Timeline{}
	index := make(map[Target]int)
	var byTarget [][]Event
	nLink, nHost := 0, 0
	for _, e := range sched.Events {
		t := Target{TargetHost, e.Target}
		if e.Kind != HostSlow {
			t.Kind = TargetLink
			nLink = max(nLink, e.Target+1)
		} else {
			nHost = max(nHost, e.Target+1)
		}
		k, ok := index[t]
		if !ok {
			k = len(tl.targets)
			index[t] = k
			tl.targets = append(tl.targets, t)
			byTarget = append(byTarget, nil)
		}
		byTarget[k] = append(byTarget[k], e)
	}
	factorAt := func(k int, t float64) float64 {
		f := 1.0
		for _, e := range byTarget[k] {
			if e.activeAt(t) {
				f *= e.Factor
			}
		}
		if f == 0 {
			f = 0 // no -0: equal factors are then equal bit for bit
		}
		return f
	}

	// cur holds each target's factor as of the last recorded change.
	cur := make([]float64, len(tl.targets))
	for k := range tl.targets {
		cur[k] = factorAt(k, 0)
		if cur[k] != 1 {
			tl.init.changed = append(tl.init.changed, tl.targets[k])
			tl.init.factors = append(tl.init.factors, cur[k])
		}
	}

	// A target's factor can only change at one of its own events'
	// injection or repair times after t=0.
	type bound struct {
		at float64
		k  int
	}
	var bounds []bound
	for k, evs := range byTarget {
		for _, e := range evs {
			if e.At > 0 {
				bounds = append(bounds, bound{e.At, k})
			}
			if e.Until > 0 {
				bounds = append(bounds, bound{e.Until, k})
			}
		}
	}
	// Within one change time, links come before hosts, each by id.
	sort.Slice(bounds, func(i, j int) bool {
		a, b := bounds[i], bounds[j]
		if a.at != b.at {
			return a.at < b.at
		}
		ta, tb := tl.targets[a.k], tl.targets[b.k]
		if ta.Kind != tb.Kind {
			return ta.Kind < tb.Kind
		}
		return ta.ID < tb.ID
	})
	for i := 0; i < len(bounds); {
		at := bounds[i].at
		var s step
		for ; i < len(bounds) && bounds[i].at == at; i++ {
			k := bounds[i].k
			if i > 0 && bounds[i-1].at == at && bounds[i-1].k == k {
				continue // several of the target's events meet here
			}
			if f := factorAt(k, at); f != cur[k] {
				cur[k] = f
				s.changed = append(s.changed, tl.targets[k])
				s.factors = append(s.factors, f)
			}
		}
		if len(s.changed) == 0 {
			continue // e.g. a repair masked by an overlapping failure
		}
		s.at = at
		tl.steps = append(tl.steps, s)
	}

	tl.state = State{link: make([]float64, nLink), host: make([]float64, nHost)}
	for i := range tl.state.link {
		tl.state.link[i] = 1
	}
	for i := range tl.state.host {
		tl.state.host[i] = 1
	}
	tl.Rewind()
	return tl
}

// State returns the mutable overlay driven by this timeline. Store the
// pointer once (e.g. in CoupledConfig.Faults); every Rewind and Step
// updates it in place.
func (tl *Timeline) State() *State { return &tl.state }

// Steps returns the number of change points after t=0.
func (tl *Timeline) Steps() int { return len(tl.steps) }

// Rewind resets the state to t=0 (faults at or before zero applied) and
// the cursor to the first change point.
func (tl *Timeline) Rewind() {
	for _, t := range tl.targets {
		tl.state.set(t, 1)
	}
	tl.init.apply(&tl.state)
	tl.cursor = 0
}

// Next returns the time of the next change point, if any.
func (tl *Timeline) Next() (float64, bool) {
	if tl.cursor >= len(tl.steps) {
		return 0, false
	}
	return tl.steps[tl.cursor].at, true
}

// Step applies the next change point to the state and returns the
// targets whose factor changed. The returned slice is owned by the
// timeline; read it before the next Compile, don't retain it.
func (tl *Timeline) Step() []Target {
	s := &tl.steps[tl.cursor]
	s.apply(&tl.state)
	tl.cursor++
	return s.changed
}

// apply writes the step's new factors into st.
func (s *step) apply(st *State) {
	for i, t := range s.changed {
		st.set(t, s.factors[i])
	}
}
