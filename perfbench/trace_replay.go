package main

import (
	"time"

	"bwshare/internal/core"
	"bwshare/internal/graph"
)

// timedEngine wraps an engine and times every call replay.Run makes
// into it. It records Advance (and, when startFlow is set, StartFlow)
// under the engine layer's span names, and sums the time spent inside
// so that replay's own time is the rest of replay.Run.
type timedEngine struct {
	core.Engine
	advance, startFlow string
	sp                 spans
	inside             time.Duration
}

func (e *timedEngine) StartFlow(src, dst graph.NodeID, bytes float64, now float64) int {
	t0 := time.Now()
	id := e.Engine.StartFlow(src, dst, bytes, now)
	d := time.Since(t0)
	e.inside += d
	if e.startFlow != "" {
		e.sp.get(e.startFlow).add(d)
	}
	return id
}

func (e *timedEngine) Advance(limit float64) ([]core.Completion, float64) {
	t0 := time.Now()
	done, now := e.Engine.Advance(limit)
	d := time.Since(t0)
	e.inside += d
	e.sp.get(e.advance).add(d)
	return done, now
}

// Reset forwards to the wrapped engine, which replay.Run resets before
// every replay.
func (e *timedEngine) Reset() {
	if r, ok := e.Engine.(core.Resetter); ok {
		r.Reset()
	}
}

// timedEngines wraps the run's engines: the substrates under the netsim
// spans, the model engines under predict.advance. The model engines'
// StartFlow is timed but not reported; it is subtracted from replay's
// own time like every other call into an engine.
func timedEngines(engines []core.Engine, sp spans) []*timedEngine {
	out := make([]*timedEngine, len(engines))
	for i, e := range engines {
		if i%2 == 0 {
			out[i] = &timedEngine{Engine: e, advance: "netsim.advance", startFlow: "netsim.startflow", sp: sp}
		} else {
			out[i] = &timedEngine{Engine: e, advance: "predict.advance", sp: sp}
		}
	}
	return out
}
