package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"bwshare/internal/apps"
	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/model"
	"bwshare/internal/netsim/gige"
	"bwshare/internal/netsim/infiniband"
	"bwshare/internal/predict"
	"bwshare/internal/replay"
	"bwshare/internal/sched"
	"bwshare/internal/stats"
	"bwshare/internal/trace"
)

// replayVariants is how many seeded trace variants one trace-replay run
// cycles through; pred_err_pct is their mean.
const replayVariants = 512

// replaySetupRepeats is how many times a trace-replay run sets up;
// setup_s is the median.
const replaySetupRepeats = 5

// The composite trace: a 4x4 halo exchange, an 8-task all-to-all and a
// 40-task broadcast sharing a 32-node dual-core cluster (64 tasks),
// placed round-robin per node (the paper's RRN). The default HPL traces
// carry a barrier, which apps.Compose rejects. The shape and the fixed
// placement keep one op near 1 ms and every op alike: random
// placements make the p99 a property of the seed's few costliest
// variants.
const replayNodes = 32

// replayCase is one seeded trace variant with its placement and, per
// engine, the digest of its first replay.
type replayCase struct {
	tr      *trace.Trace
	clu     cluster.Cluster
	place   cluster.Placement
	digests []uint64
}

// replayRun is one trace-replay run: four engines (each substrate and
// the model engine predicting it) and the trace variants.
type replayRun struct {
	engines []core.Engine // measured, predicted, measured, predicted
	cases   []replayCase
	predErr float64
	setupS  float64
}

// newEngines builds the gige and infiniband substrates, each followed
// by the model engine that predicts it.
func newEngines() []core.Engine {
	gs := gige.New(gige.DefaultConfig())
	is := infiniband.New(infiniband.DefaultConfig())
	return []core.Engine{
		gs, predict.NewEngine(model.NewGigE(), gs.RefRate()),
		is, predict.NewEngine(model.NewInfiniBand(), is.RefRate()),
	}
}

// composite generates trace variant v of a seed: halo, message and
// compute sizes vary, the shape and the placement do not.
func composite(seed int64, v int) (*trace.Trace, cluster.Cluster, cluster.Placement, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(v)))
	between := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	halo, err := apps.Halo2D(4, 4, 1, between(2e6, 6e6), between(0.5e-3, 2e-3))
	if err != nil {
		return nil, cluster.Cluster{}, nil, err
	}
	a2a, err := apps.AllToAll(8, 1, between(1e6, 3e6), between(0.5e-3, 2e-3))
	if err != nil {
		return nil, cluster.Cluster{}, nil, err
	}
	bcast, err := apps.Broadcast(40, 1, between(4e6, 12e6), between(0.5e-3, 2e-3))
	if err != nil {
		return nil, cluster.Cluster{}, nil, err
	}
	tr, err := apps.Compose(halo, a2a, bcast)
	if err != nil {
		return nil, cluster.Cluster{}, nil, err
	}
	clu := cluster.Default(replayNodes)
	place, err := sched.Place(sched.RRN, clu, tr.NumTasks(), 0)
	if err != nil {
		return nil, cluster.Cluster{}, nil, err
	}
	return tr, clu, place, nil
}

// setupReplay generates the variants and replays each once per engine,
// keeping the digests and the prediction error; replaySetupRepeats
// times, keeping the last.
func setupReplay(seed int64) (*replayRun, error) {
	var times []float64
	var r *replayRun
	for i := 0; i < replaySetupRepeats; i++ {
		t0 := time.Now()
		var err error
		if r, err = prepareReplay(seed); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.setupS = medianOf(times)
	return r, nil
}

func prepareReplay(seed int64) (*replayRun, error) {
	r := &replayRun{engines: newEngines()}
	var errs []float64
	for v := 0; v < replayVariants; v++ {
		tr, clu, place, err := composite(seed, v)
		if err != nil {
			return nil, fmt.Errorf("trace variant %d: %w", v, err)
		}
		c := replayCase{tr: tr, clu: clu, place: place}
		var results []*replay.Result
		for _, e := range r.engines {
			res, err := replay.Run(e, clu, place, tr)
			if err != nil {
				return nil, fmt.Errorf("trace variant %d on %s: %w", v, e.Name(), err)
			}
			c.digests = append(c.digests, digest(res))
			results = append(results, res)
		}
		for i := 0; i < len(results); i += 2 {
			errs = append(errs, taskErr(results[i+1].CommTimes(), results[i].CommTimes()))
		}
		r.cases = append(r.cases, c)
	}
	r.predErr = stats.Mean(errs)
	return r, nil
}

// taskErr is the paper's application metric: the mean over tasks of
// |Sp - Sm| / Sm in percent, over the tasks that send (Sm > 0).
func taskErr(sp, sm []float64) float64 {
	var e []float64
	for i := range sm {
		if sm[i] > 0 {
			e = append(e, stats.TaskAbsErr(sp[i], sm[i]))
		}
	}
	return stats.Mean(e)
}

// digest hashes everything a replay reports, bit for bit.
func digest(r *replay.Result) uint64 {
	h := fnv.New64a()
	put := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	put(r.Makespan, float64(r.NetTransfers), float64(r.LocalTransfers))
	for _, t := range r.Tasks {
		put(float64(t.Rank), t.Finish, t.SendTime, t.RecvTime, t.BlockedSend, float64(t.Sends), t.NetBytes)
	}
	return h.Sum64()
}

// run replays ops for d, single-threaded. One op is one trace variant
// replayed on one fabric's substrate and on the model engine that
// predicts it: one measured-vs-predicted comparison. Ops alternate
// between the fabrics and step through the variants; *op carries the
// position from one window to the next. engines overrides the run's
// engines (the traced run passes timing wrappers).
//
// An op's latency is the CPU time of the thread that replays it, so
// that time the hypervisor runs other guests on the vCPU, or the host
// runs other processes, does not count: an offline replay on a core of
// its own takes its CPU time. The GC's assists on the op's allocations
// run on that thread and count; its background marking does not.
func (r *replayRun) run(d time.Duration, engines []core.Engine, op *int) window {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := window{start: time.Now(), length: d, cpuTimed: true}
	for time.Since(w.start) < d {
		c := r.cases[(*op/2)%len(r.cases)]
		pair := *op % 2 * 2
		*op++
		t0, c0 := time.Now(), threadCPU()
		var problem error
		for i := pair; i < pair+2; i++ {
			e := engines[i]
			t1 := time.Now()
			te, timed := e.(*timedEngine)
			var inside time.Duration
			if timed {
				inside = te.inside
			}
			res, err := replay.Run(e, c.clu, c.place, c.tr)
			if timed {
				te.sp.get("replay.self").add(time.Since(t1) - (te.inside - inside))
			}
			switch {
			case err != nil:
				problem = fmt.Errorf("replay on %s: %w", e.Name(), err)
			case digest(res) != c.digests[i]:
				problem = fmt.Errorf("replay on %s: result digest differs from the first replay", e.Name())
			}
		}
		w.log.record(t0, threadCPU()-c0)
		if problem != nil {
			w.log.fail("%v", problem)
		}
	}
	runtime.ReadMemStats(&after)
	w.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	return w
}
