package replay

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"bwshare/internal/apps"
	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/hpl"
	"bwshare/internal/model"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/infiniband"
	"bwshare/internal/netsim/myrinet"
	"bwshare/internal/predict"
	"bwshare/internal/randgen"
	"bwshare/internal/sched"
	"bwshare/internal/trace"
)

// diffEngines builds the three substrates and the five model engines,
// each model at the reference rate of the substrate it predicts.
func diffEngines() []core.Engine {
	gs := gige.New(gige.DefaultConfig())
	is := infiniband.New(infiniband.DefaultConfig())
	ms := myrinet.New(myrinet.DefaultConfig())
	return []core.Engine{
		gs, is, ms,
		predict.NewEngine(model.NewGigE(), gs.RefRate()),
		predict.NewEngine(model.NewInfiniBand(), is.RefRate()),
		predict.NewEngine(model.NewMyrinet(), ms.RefRate()),
		predict.NewEngine(model.KimLee{}, gs.RefRate()),
		predict.NewEngine(model.Linear{}, gs.RefRate()),
	}
}

// sameResult describes the first difference between two replay
// outcomes, comparing every float bit for bit; "" means identical.
func sameResult(got *Result, gotErr error, want *Result, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("error %v, oracle %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.Engine != want.Engine || !same(got.Makespan, want.Makespan) ||
		got.NetTransfers != want.NetTransfers || got.LocalTransfers != want.LocalTransfers ||
		len(got.Tasks) != len(want.Tasks) {
		return fmt.Sprintf("summary %s %v %d/%d, oracle %s %v %d/%d", got.Engine, got.Makespan,
			got.NetTransfers, got.LocalTransfers, want.Engine, want.Makespan, want.NetTransfers, want.LocalTransfers)
	}
	for i, g := range got.Tasks {
		w := want.Tasks[i]
		if g.Rank != w.Rank || !same(g.Finish, w.Finish) || !same(g.SendTime, w.SendTime) ||
			!same(g.RecvTime, w.RecvTime) || !same(g.BlockedSend, w.BlockedSend) ||
			g.Sends != w.Sends || !same(g.NetBytes, w.NetBytes) {
			return fmt.Sprintf("task %d: %+v, oracle %+v", i, g, w)
		}
	}
	return ""
}

// checkAgainstOracle replays tr on every engine with Run and with the
// oracle and requires identical outcomes.
func checkAgainstOracle(t *testing.T, engines []core.Engine, name string, clu cluster.Cluster, place cluster.Placement, tr *trace.Trace) {
	t.Helper()
	for _, e := range engines {
		want, wantErr := oracleRun(e, clu, place, tr)
		got, gotErr := Run(e, clu, place, tr)
		if d := sameResult(got, gotErr, want, wantErr); d != "" {
			t.Fatalf("%s on %s: %s", name, e.Name(), d)
		}
	}
}

// drawPlacement draws a placement of n tasks under one of the paper's
// strategies on a dual-core cluster with between n/2 and n nodes.
func drawPlacement(t *testing.T, rng *rand.Rand, n int) (cluster.Cluster, cluster.Placement, string) {
	t.Helper()
	nodes := (n+1)/2 + rng.IntN(n/2+1)
	clu := cluster.Default(nodes)
	strategy := sched.Strategies()[rng.IntN(3)]
	p, err := sched.Place(strategy, clu, n, rng.Int64())
	if err != nil {
		t.Fatal(err)
	}
	return clu, p, strategy
}

// compositeTrace draws a halo exchange, an all-to-all and a broadcast
// sharing one cluster, scaled down from the 64-task benchmark shape.
func compositeTrace(rng *rand.Rand) (*trace.Trace, error) {
	between := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	dims := []int{1, 2, 4}
	halo, err := apps.Halo2D(dims[rng.IntN(3)], dims[1+rng.IntN(2)], 1+rng.IntN(2), between(2e5, 1e6), between(1e-4, 1e-3))
	if err != nil {
		return nil, err
	}
	a2a, err := apps.AllToAll(4<<rng.IntN(2), 1, between(1e5, 5e5), between(1e-4, 1e-3))
	if err != nil {
		return nil, err
	}
	bcast, err := apps.Broadcast(3+rng.IntN(10), 1+rng.IntN(2), between(2e5, 1e6), between(1e-4, 1e-3))
	if err != nil {
		return nil, err
	}
	return apps.Compose(halo, a2a, bcast)
}

// fanInTrace draws rounds of fan-ins: every other task sends one
// message to the round's root with a tag from a small set, and the root
// receives them in a random order, from trace.AnySource or (sometimes)
// the named sender. Explicit sources can leave a send unmatched, so
// some traces deadlock; the drivers must agree on that too. With
// barriers, every round ends in one.
func fanInTrace(rng *rand.Rand, barriers bool) *trace.Trace {
	n := 3 + rng.IntN(10)
	tr := &trace.Trace{Tasks: make([]trace.Task, n)}
	add := func(r int, ev trace.Event) { tr.Tasks[r] = append(tr.Tasks[r], ev) }
	for round := 0; round < 1+rng.IntN(3); round++ {
		root := rng.IntN(n)
		for _, r := range rng.Perm(n) {
			if r == root {
				continue
			}
			tag := 3*round + rng.IntN(3)
			if rng.IntN(2) == 0 {
				add(r, trace.Event{Kind: trace.Compute, Duration: rng.Float64() * 1e-3})
			}
			add(r, trace.Event{Kind: trace.Send, Peer: root, Bytes: 1e5 + rng.Float64()*1e6, Tag: tag})
			peer := trace.AnySource
			if rng.IntN(8) == 0 {
				peer = r
			}
			add(root, trace.Event{Kind: trace.Recv, Peer: peer, Bytes: 1, Tag: tag})
		}
		if barriers {
			for r := range tr.Tasks {
				add(r, trace.Event{Kind: trace.Barrier})
			}
		}
	}
	// Shuffle the root's receives within each round's block so the
	// receive order differs from the send order.
	for r := range tr.Tasks {
		task := tr.Tasks[r]
		for lo := 0; lo < len(task); {
			hi := lo
			for hi < len(task) && task[hi].Kind == trace.Recv {
				hi++
			}
			block := task[lo:hi]
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			lo = hi + 1
		}
	}
	return tr
}

// TestRunMatchesOracle is the differential matrix: seeded composite
// traces under RRN/RRP/Random placement, randgen workloads, AnySource
// fan-ins with mixed tags (with and without barriers) and HPL traces,
// each on the three substrates and the five model engines, must replay
// bit-identically to the scan-based oracle.
func TestRunMatchesOracle(t *testing.T) {
	cases := 64
	if testing.Short() {
		cases = 8
	}
	rng := rand.New(rand.NewPCG(14, 0))
	engines := diffEngines()
	wcfg := randgen.TraceConfig{
		MinTasks: 2, MaxTasks: 8, Rounds: 4, PairProb: 0.7, ExchangeProb: 0.5,
		MinBytes: 1e5, MaxBytes: 1e6, MaxComputeSec: 1e-3,
	}
	for i := 0; i < cases; i++ {
		tr, err := compositeTrace(rng)
		if err != nil {
			t.Fatal(err)
		}
		clu, p, how := drawPlacement(t, rng, tr.NumTasks())
		checkAgainstOracle(t, engines, fmt.Sprintf("composite %d (%s)", i, how), clu, p, tr)

		tr, err = randgen.Workload(rng, 1+rng.IntN(3), wcfg)
		if err != nil {
			t.Fatal(err)
		}
		clu, p, how = drawPlacement(t, rng, tr.NumTasks())
		checkAgainstOracle(t, engines, fmt.Sprintf("workload %d (%s)", i, how), clu, p, tr)

		tr = fanInTrace(rng, i%2 == 1)
		clu, p, how = drawPlacement(t, rng, tr.NumTasks())
		checkAgainstOracle(t, engines, fmt.Sprintf("fan-in %d (%s)", i, how), clu, p, tr)

		cfg := hpl.Default(2 + rng.IntN(7))
		cfg.N = 600 + 120*rng.IntN(6)
		tr, err = hpl.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clu, p, how = drawPlacement(t, rng, tr.NumTasks())
		checkAgainstOracle(t, engines, fmt.Sprintf("hpl %d (%s)", i, how), clu, p, tr)
	}
}

// TestRunConcurrent: replays on separate engines from several
// goroutines share the pool of driver state; each must still match its
// sequential result bit for bit.
func TestRunConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 0))
	type job struct {
		tr    *trace.Trace
		clu   cluster.Cluster
		place cluster.Placement
		want  *Result
	}
	jobs := make([]job, 8)
	for i := range jobs {
		tr, err := compositeTrace(rng)
		if err != nil {
			t.Fatal(err)
		}
		clu, p, _ := drawPlacement(t, rng, tr.NumTasks())
		want, err := Run(engine(), clu, p, tr)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{tr, clu, p, want}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := engine()
			for round := 0; round < 5; round++ {
				for _, j := range jobs {
					got, err := Run(e, j.clu, j.place, j.tr)
					if d := sameResult(got, err, j.want, nil); d != "" {
						t.Errorf("goroutine %d: %s", w, d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
