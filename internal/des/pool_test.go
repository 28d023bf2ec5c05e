package des

import "testing"

// Tests for the bounded event free list, mirroring netsim's pool_test:
// one huge transient trace must not pin its peak event count in the
// queue forever, while normally sized workloads keep the
// zero-allocation steady state.

// TestFreeListCapped: recycling more events than maxFreeEvents keeps
// the free list at the cap — the excess structs go to the GC.
func TestFreeListCapped(t *testing.T) {
	q := new(Queue)
	const n = maxFreeEvents + 512
	for i := 0; i < n; i++ {
		q.Schedule(float64(i), func() {})
	}
	q.Drain()
	if len(q.free) != maxFreeEvents {
		t.Fatalf("free list holds %d events after draining %d, want cap %d",
			len(q.free), n, maxFreeEvents)
	}
	// Reset of a huge pending backlog obeys the cap too.
	for i := 0; i < n; i++ {
		q.Schedule(q.Now()+1+float64(i), func() {})
	}
	q.Reset()
	if len(q.free) != maxFreeEvents {
		t.Fatalf("free list holds %d events after Reset of %d pending, want cap %d",
			len(q.free), n, maxFreeEvents)
	}
}

// TestDroppedEventHandleStaysInvalid: an event struct dropped by the
// cap still had its generation bumped, so a stale Handle to it cancels
// nothing even though the struct never re-enters the pool.
func TestDroppedEventHandleStaysInvalid(t *testing.T) {
	q := new(Queue)
	handles := make([]Handle, 0, maxFreeEvents+8)
	for i := 0; i < maxFreeEvents+8; i++ {
		handles = append(handles, q.Schedule(float64(i), func() {}))
	}
	q.Drain()
	fired := 0
	q.Schedule(1e6, func() { fired++ })
	for _, h := range handles {
		q.Cancel(h) // all stale: must be no-ops
	}
	q.Drain()
	if fired != 1 {
		t.Fatalf("stale Cancel removed a live event (fired %d, want 1)", fired)
	}
}

// TestSteadyStateReusesEvents: below the cap, a schedule/fire cycle
// reuses pooled structs and allocates nothing — the guarantee the
// Myrinet packet path and the replay driver rely on.
func TestSteadyStateReusesEvents(t *testing.T) {
	q := new(Queue)
	var r nopRunner
	// Warm the pool.
	for i := 0; i < 64; i++ {
		q.ScheduleRunner(q.Now()+1, &r)
		q.Step()
	}
	if avg := testing.AllocsPerRun(200, func() {
		q.ScheduleRunner(q.Now()+1, &r)
		q.Step()
	}); avg != 0 {
		t.Errorf("schedule/fire cycle allocates %.2f objects/op in steady state, want 0", avg)
	}
}

type nopRunner struct{}

func (*nopRunner) Run() {}
