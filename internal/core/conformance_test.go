package core_test

import (
	"testing"

	"bwshare/internal/core"
	"bwshare/internal/fault"
	"bwshare/internal/graph"
	"bwshare/internal/model"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/infiniband"
	"bwshare/internal/netsim/myrinet"
	"bwshare/internal/predict"
	"bwshare/internal/topology"
)

// TestFlowIDsConsecutive holds both engine families — the fluid engine
// core (substrates and model engines, on a fabric and with faults) and
// the packet-level Myrinet engine — to the core.Engine id contract:
// StartFlow numbers flows 0, 1, 2, ... from construction and again
// after every Reset, including flows started mid-run between Advance
// calls, and every id completes exactly once.
func TestFlowIDsConsecutive(t *testing.T) {
	topo, err := topology.ParseSpec("fattree 2x4 oversub 2")
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := predict.NewEngineWithFaults(model.NewGigE(), 1e8, topo, fault.Schedule{Events: []fault.Event{
		{Kind: fault.LinkDegrade, Target: 0, Factor: 0.5, At: 0.01, Until: 0.05},
	}})
	if err != nil {
		t.Fatal(err)
	}
	engines := []core.Engine{
		gige.New(gige.DefaultConfig()),
		infiniband.New(infiniband.DefaultConfig()),
		myrinet.New(myrinet.DefaultConfig()),
		predict.NewEngine(model.NewGigE(), 1e8),
		predict.NewEngine(model.NewMyrinet(), 1e8),
		predict.NewEngineWithTopology(model.NewInfiniBand(), 1e8, topo),
		faulted,
	}
	for _, e := range engines {
		for run := 0; run < 3; run++ {
			if run > 0 {
				e.(core.Resetter).Reset()
			}
			next, seen := 0, map[int]bool{}
			start := func(src, dst graph.NodeID, now float64) {
				if id := e.StartFlow(src, dst, 1e6*float64(1+next%3), now); id != next {
					t.Fatalf("%s run %d: StartFlow returned id %d, want %d", e.Name(), run, id, next)
				}
				next++
			}
			for k := 0; k < 4; k++ {
				start(graph.NodeID(k), graph.NodeID((k+1)%4), 0)
			}
			// Start two more flows after each completion batch, until
			// twelve have started, then drain.
			for {
				done, now := e.Advance(core.Inf)
				if len(done) == 0 {
					break
				}
				for _, c := range done {
					if c.Flow < 0 || c.Flow >= next || seen[c.Flow] {
						t.Fatalf("%s run %d: completion of flow %d (started %d, seen %v)", e.Name(), run, c.Flow, next, seen[c.Flow])
					}
					seen[c.Flow] = true
				}
				if next < 12 {
					start(graph.NodeID(next%8), graph.NodeID((next+3)%8), now)
					start(graph.NodeID((next+5)%8), graph.NodeID(next%8), now)
				}
			}
			if len(seen) != next {
				t.Fatalf("%s run %d: %d of %d flows completed", e.Name(), run, len(seen), next)
			}
		}
	}
}
