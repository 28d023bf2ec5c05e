package cluster

import (
	"math"
	"testing"

	"bwshare/internal/graph"
)

func TestDefault(t *testing.T) {
	c := Default(8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Slots() != 16 {
		t.Fatalf("Slots = %d, want 16", c.Slots())
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Cluster{
		{Nodes: 0, CoresPerNode: 2, MemRate: 1},
		{Nodes: 2, CoresPerNode: 0, MemRate: 1},
		{Nodes: 2, CoresPerNode: 2, MemRate: 0},
		{Nodes: 2, CoresPerNode: 2, MemRate: 1, MemLatency: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestLocalCopyTime(t *testing.T) {
	c := Cluster{Nodes: 1, CoresPerNode: 2, MemRate: 1e9, MemLatency: 1e-6}
	got := c.LocalCopyTime(1e9)
	if math.Abs(got-(1+1e-6)) > 1e-12 {
		t.Fatalf("LocalCopyTime = %g, want 1.000001", got)
	}
}

func TestPlacementValidate(t *testing.T) {
	c := Default(2) // 2 nodes x 2 cores
	ok := Placement{0, 0, 1, 1}
	if err := ok.Validate(c); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	if err := (Placement{0, 0, 0}).Validate(c); err == nil {
		t.Error("overfull node accepted")
	}
	if err := (Placement{0, 5}).Validate(c); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := (Placement{graph.NodeID(-1)}).Validate(c); err == nil {
		t.Error("negative node accepted")
	}
}

func TestSameNode(t *testing.T) {
	p := Placement{0, 1, 0}
	if !p.SameNode(0, 2) || p.SameNode(0, 1) {
		t.Fatal("SameNode wrong")
	}
}

// TestPlacementValidateDeterministic: with several nodes over capacity,
// the error names the lowest one, the same on every call, on a small
// cluster (counted on the stack) and on a large one (counted in a map).
func TestPlacementValidateDeterministic(t *testing.T) {
	for _, nodes := range []int{16, 4 * smallCluster} {
		c := Default(nodes)
		p := Placement{}
		for _, n := range []graph.NodeID{9, 3, 14, 5} {
			p = append(p, n, n, n) // 3 tasks on a dual-core node
		}
		p = append(p, 3)
		want := "cluster: node 3 hosts 4 tasks, capacity 2"
		for i := 0; i < 50; i++ {
			err := p.Validate(c)
			if err == nil || err.Error() != want {
				t.Fatalf("%d nodes, call %d: error %v, want %q", nodes, i, err, want)
			}
		}
		if err := (Placement{9, 3, 9, 3, 0}).Validate(c); err != nil {
			t.Errorf("%d nodes: placement within capacity rejected: %v", nodes, err)
		}
	}
}

func TestPlacementValidateZeroAllocs(t *testing.T) {
	c := Default(32)
	p := make(Placement, 64)
	for i := range p {
		p[i] = graph.NodeID(i % 32)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := p.Validate(c); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Validate allocates %.1f times per call on a %d-node cluster", a, c.Nodes)
	}
}
