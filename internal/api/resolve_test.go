package api

import (
	"encoding/json"
	"testing"

	"bwshare/internal/fault"
)

// FuzzResolveGraph feeds arbitrary JSON request bodies to the request
// resolver. It must never panic, and whatever it accepts must be safe
// to simulate: the schedule validates against the resolved fabric,
// compiles, holds at most MaxFaultEvents faults in either form, and
// names no host at or past MaxNodeID (fault.Compile sizes its host
// tables by the largest one).
func FuzzResolveGraph(f *testing.F) {
	f.Add([]byte(`{"name":"s4"}`))
	f.Add([]byte(`{"model":"gige","comms":[{"src":0,"dst":1,"volume":4e6},{"src":2,"dst":1}]}`))
	f.Add([]byte(`{"scheme":"topology: star 4x4\nfault: link 0 degrade 0.25 at 0 until 1e9\na: 0 -> 5 8MB\n"}`))
	f.Add([]byte(`{"comms":[{"src":0,"dst":1}],"topology":{"kind":"fattree","switches":2,"hosts_per_switch":4,"oversub":4},` +
		`"faults":[{"kind":"link_down","switch":1,"at":0.1,"until":0.2},{"kind":"host_slow","host":3,"factor":0.5,"at":0}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req PredictRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		_, topo, sched, err := ResolveGraph(req)
		if err != nil {
			return
		}
		if err := sched.Validate(topo); err != nil {
			t.Fatalf("accepted schedule does not validate: %v", err)
		}
		if len(sched.Events) > MaxFaultEvents {
			t.Fatalf("accepted %d faults, limit %d", len(sched.Events), MaxFaultEvents)
		}
		for _, e := range sched.Events {
			if e.Kind == fault.HostSlow && e.Target >= MaxNodeID {
				t.Fatalf("accepted host target %d >= %d", e.Target, MaxNodeID)
			}
		}
		tl := fault.Compile(sched)
		for {
			if _, ok := tl.Next(); !ok {
				break
			}
			tl.Step()
		}
	})
}
