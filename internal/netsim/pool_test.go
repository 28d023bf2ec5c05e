package netsim

import "testing"

// Tests for the bounded scratch retention fix: fillPool must shed
// scratch whose capacity was inflated by one huge transient scheme
// instead of pinning it for the life of the process.

// inflateScratch grows the scratch the way a big allocation epoch
// would: many flows and a large node id in the interner stamp tables.
func inflateScratch(sc *fillScratch, flows int, maxNode int) {
	sc.begin()
	sc.snd.Intern(maxNode)
	sc.rcv.Intern(maxNode)
	for i := 0; i < flows; i++ {
		sc.d.sidx = append(sc.d.sidx, 0)
	}
}

func TestFillScratchOversized(t *testing.T) {
	small := new(fillScratch)
	inflateScratch(small, 64, 128)
	if small.oversized() {
		t.Fatal("small scratch reported oversized")
	}
	byFlows := new(fillScratch)
	inflateScratch(byFlows, maxPooledScratchLen+1, 128)
	if !byFlows.oversized() {
		t.Fatal("scratch with huge per-flow arrays not reported oversized")
	}
	byNode := new(fillScratch)
	inflateScratch(byNode, 64, maxPooledScratchLen+1)
	if !byNode.oversized() {
		t.Fatal("scratch with huge interner tables not reported oversized")
	}
}

// TestFillPoolShedsOversizedScratch: an oversized scratch handed to
// putFillScratch is dropped, so no later Get can ever return it. (A
// retained one could legally come back from the per-P cache on the
// very next Get, which is exactly the leak this guards against.)
func TestFillPoolShedsOversizedScratch(t *testing.T) {
	sc := new(fillScratch)
	inflateScratch(sc, maxPooledScratchLen+1, 128)
	putFillScratch(sc)
	for i := 0; i < 32; i++ {
		if got := fillPool.Get().(*fillScratch); got == sc {
			t.Fatal("fillPool retained an oversized scratch")
		}
	}
}

// TestFillPoolKeepsNormalScratch: the shedding cap must not break the
// zero-allocation steady state — a normally sized scratch still rides
// the pool.
func TestFillPoolKeepsNormalScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	sc := new(fillScratch)
	inflateScratch(sc, 64, 128)
	putFillScratch(sc)
	for i := 0; i < 32; i++ {
		if fillPool.Get().(*fillScratch) == sc {
			return
		}
	}
	// Not guaranteed by sync.Pool semantics, but on the same goroutine
	// with no intervening Puts the per-P cache returns it in practice;
	// treat a miss as an environment quirk rather than a failure.
	t.Skip("pool did not hand the scratch back; cannot distinguish shed from cache miss")
}
