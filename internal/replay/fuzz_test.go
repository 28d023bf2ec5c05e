package replay

import (
	"testing"

	"bwshare/internal/cluster"
	"bwshare/internal/graph"
	"bwshare/internal/trace"
)

// fuzzTrace decodes a small trace, its cluster and placement from b:
// 2-7 tasks of up to 7 events each (compute, send, receive from a peer
// or trace.AnySource, tags 0-2), optionally one barrier per task. The
// decoding never fails; traces that deadlock or do not validate are
// fine, the drivers must merely agree on them.
func fuzzTrace(b []byte) (*trace.Trace, cluster.Cluster, cluster.Placement) {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	n := 2 + next()%6
	tr := &trace.Trace{Tasks: make([]trace.Task, n)}
	barrier := next()%2 == 1
	for r := range tr.Tasks {
		events := next() % 8
		for i := 0; i < events; i++ {
			peer := (r + 1 + next()%(n-1)) % n
			tag := next() % 3
			switch next() % 3 {
			case 0:
				tr.Tasks[r] = append(tr.Tasks[r], trace.Event{Kind: trace.Compute, Duration: float64(next()) * 1e-5})
			case 1:
				tr.Tasks[r] = append(tr.Tasks[r], trace.Event{Kind: trace.Send, Peer: peer, Bytes: float64(1+next()) * 4e3, Tag: tag})
			default:
				if next()%2 == 0 {
					peer = trace.AnySource
				}
				tr.Tasks[r] = append(tr.Tasks[r], trace.Event{Kind: trace.Recv, Peer: peer, Bytes: 1, Tag: tag})
			}
		}
		if barrier {
			at := next() % (len(tr.Tasks[r]) + 1)
			tr.Tasks[r] = append(tr.Tasks[r][:at], append(trace.Task{{Kind: trace.Barrier}}, tr.Tasks[r][at:]...)...)
		}
	}
	clu := cluster.Default((n+1)/2 + next()%n)
	place := make(cluster.Placement, n)
	free := make([]int, clu.Nodes)
	for r := range place {
		node := next() % clu.Nodes
		for free[node] == clu.CoresPerNode {
			node = (node + 1) % clu.Nodes
		}
		free[node]++
		place[r] = graph.NodeID(node)
	}
	return tr, clu, place
}

// FuzzReplayMatchesOracle requires Run to replay small random traces
// bit-identically to the scan-based oracle (or fail with the same
// error) on every substrate and model engine.
func FuzzReplayMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 0, 0, 1, 9, 1, 1, 2, 0, 2, 0, 1, 7, 3, 1, 0, 0, 2, 1, 4})
	f.Add([]byte{4, 1, 5, 2, 1, 1, 200, 0, 2, 2, 1, 3, 0, 0, 50, 1, 2, 1, 1, 9, 2, 0, 2, 0, 0, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 0, 2, 0, 0, 2, 1, 0, 0, 1, 30, 2, 1, 0, 1, 1, 0, 2, 0, 0, 1, 1, 2, 1, 2, 0, 1})
	engines := diffEngines()
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, clu, place := fuzzTrace(b)
		checkAgainstOracle(t, engines, "fuzz trace", clu, place, tr)
	})
}
