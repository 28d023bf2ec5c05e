// Package graph defines communication scheme graphs: a set of cluster
// nodes and directed point-to-point communications between them.
//
// A communication scheme is the central object of the paper: penalties,
// conflicts and models are all functions of the scheme graph. Nodes are
// identified by small non-negative integers (cluster node indices, not MPI
// ranks); communications carry a label, endpoints and a volume in bytes.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a cluster node in a scheme.
type NodeID int

// CommID identifies a communication within one Graph (dense, 0-based).
type CommID int

// Comm is one directed point-to-point communication.
type Comm struct {
	ID     CommID
	Label  string  // short name such as "a", "b" (unique within a graph)
	Src    NodeID  // source node
	Dst    NodeID  // destination node
	Volume float64 // bytes to transfer
}

// Graph is an immutable-after-build communication scheme.
type Graph struct {
	comms   []Comm
	nodes   []NodeID // sorted endpoint set, computed once at Build
	maxNode NodeID   // largest endpoint id, -1 when empty
	outDeg  map[NodeID]int
	inDeg   map[NodeID]int
	byLabel map[string]CommID
}

// Builder incrementally constructs a Graph.
type Builder struct {
	comms []Comm
	seen  map[string]bool
	err   error
}

// NewBuilder returns an empty scheme builder.
func NewBuilder() *Builder {
	return &Builder{seen: make(map[string]bool)}
}

// Add appends a communication with an explicit label. Self-loops and
// duplicate labels are recorded as errors surfaced by Build.
func (b *Builder) Add(label string, src, dst NodeID, volume float64) *Builder {
	if b.err != nil {
		return b
	}
	switch {
	case label == "":
		b.err = fmt.Errorf("graph: empty label")
	case b.seen[label]:
		b.err = fmt.Errorf("graph: duplicate label %q", label)
	case src == dst:
		b.err = fmt.Errorf("graph: communication %q is a self-loop on node %d", label, src)
	case src < 0 || dst < 0:
		b.err = fmt.Errorf("graph: communication %q has negative node id", label)
	case volume <= 0:
		b.err = fmt.Errorf("graph: communication %q has non-positive volume %g", label, volume)
	}
	if b.err != nil {
		return b
	}
	b.seen[label] = true
	b.comms = append(b.comms, Comm{
		ID:     CommID(len(b.comms)),
		Label:  label,
		Src:    src,
		Dst:    dst,
		Volume: volume,
	})
	return b
}

// Build finalizes the graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{
		comms:   append([]Comm(nil), b.comms...),
		maxNode: -1,
		outDeg:  make(map[NodeID]int),
		inDeg:   make(map[NodeID]int),
		byLabel: make(map[string]CommID, len(b.comms)),
	}
	set := make(map[NodeID]bool, 2*len(g.comms))
	for _, c := range g.comms {
		g.outDeg[c.Src]++
		g.inDeg[c.Dst]++
		g.byLabel[c.Label] = c.ID
		set[c.Src] = true
		set[c.Dst] = true
		if c.Src > g.maxNode {
			g.maxNode = c.Src
		}
		if c.Dst > g.maxNode {
			g.maxNode = c.Dst
		}
	}
	g.nodes = make([]NodeID, 0, len(set))
	for n := range set {
		g.nodes = append(g.nodes, n)
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i] < g.nodes[j] })
	return g, nil
}

// MustBuild is Build that panics on error; for tests and literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Len returns the number of communications.
func (g *Graph) Len() int { return len(g.comms) }

// Comm returns the communication with the given id.
func (g *Graph) Comm(id CommID) Comm { return g.comms[int(id)] }

// Comms returns a copy of all communications in id order.
func (g *Graph) Comms() []Comm { return append([]Comm(nil), g.comms...) }

// ByLabel looks a communication up by label.
func (g *Graph) ByLabel(label string) (Comm, bool) {
	id, ok := g.byLabel[label]
	if !ok {
		return Comm{}, false
	}
	return g.comms[int(id)], true
}

// OutDegree returns Δo(n): the number of communications leaving node n.
func (g *Graph) OutDegree(n NodeID) int { return g.outDeg[n] }

// InDegree returns Δi(n): the number of communications entering node n.
func (g *Graph) InDegree(n NodeID) int { return g.inDeg[n] }

// Nodes returns the sorted set of nodes that appear as an endpoint. The
// set is computed once at Build; callers get a copy.
func (g *Graph) Nodes() []NodeID {
	return append([]NodeID(nil), g.nodes...)
}

// NumNodes returns the number of distinct endpoint nodes without
// allocating.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NodeIndex returns the position of n in Nodes(), or -1 when n is not
// an endpoint. It allocates nothing.
func (g *Graph) NodeIndex(n NodeID) int {
	if i, ok := slices.BinarySearch(g.nodes, n); ok {
		return i
	}
	return -1
}

// MaxNode returns the largest node id appearing as an endpoint, or -1
// for an empty scheme. Dense per-node state can be sized from it.
func (g *Graph) MaxNode() NodeID { return g.maxNode }

// Sources returns the ids of communications whose source is n, in id order.
func (g *Graph) Sources(n NodeID) []CommID {
	var out []CommID
	for _, c := range g.comms {
		if c.Src == n {
			out = append(out, c.ID)
		}
	}
	return out
}

// Destinations returns the ids of communications whose destination is n.
func (g *Graph) Destinations(n NodeID) []CommID {
	var out []CommID
	for _, c := range g.comms {
		if c.Dst == n {
			out = append(out, c.ID)
		}
	}
	return out
}

// Subgraph returns a new Graph containing only the communications whose id
// is in keep (order preserved, ids renumbered densely). The returned
// mapping gives, for each new id, the original id.
func (g *Graph) Subgraph(keep []CommID) (*Graph, []CommID) {
	b := NewBuilder()
	orig := make([]CommID, 0, len(keep))
	for _, id := range keep {
		c := g.comms[int(id)]
		b.Add(c.Label, c.Src, c.Dst, c.Volume)
		orig = append(orig, id)
	}
	sub, err := b.Build()
	if err != nil {
		// keep ids come from this graph, so labels are unique and valid.
		panic("graph: Subgraph internal error: " + err.Error())
	}
	return sub, orig
}

// Equal reports whether two graphs describe the identical communication
// sequence: same length and, position by position, the same label,
// endpoints and volume. It allocates nothing, so it is usable to confirm
// hash-keyed cache hits on the serving hot path.
func Equal(a, b *Graph) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || len(a.comms) != len(b.comms) {
		return false
	}
	for i := range a.comms {
		ca, cb := &a.comms[i], &b.comms[i]
		if ca.Label != cb.Label || ca.Src != cb.Src || ca.Dst != cb.Dst || ca.Volume != cb.Volume {
			return false
		}
	}
	return true
}

// ConflictKind classifies the elementary conflict of one communication on
// one of its endpoint nodes (Section IV-A of the paper).
type ConflictKind int

const (
	// NoConflict: the communication is alone on the node.
	NoConflict ConflictKind = iota
	// OutgoingConflict C<-X->: outgoes together with other outgoing comms.
	OutgoingConflict
	// IncomingConflict C->X<-: incomes together with other incoming comms.
	IncomingConflict
	// MixedConflict C->X-> or C<-X<-: incomes (resp. outgoes) with other
	// outgoing (resp. incoming) communications.
	MixedConflict
)

func (k ConflictKind) String() string {
	switch k {
	case NoConflict:
		return "none"
	case OutgoingConflict:
		return "outgoing"
	case IncomingConflict:
		return "incoming"
	case MixedConflict:
		return "mixed"
	default:
		return fmt.Sprintf("ConflictKind(%d)", int(k))
	}
}

// ConflictAt classifies the conflict that communication id experiences at
// node n, which must be one of its endpoints.
func (g *Graph) ConflictAt(id CommID, n NodeID) ConflictKind {
	c := g.comms[int(id)]
	out, in := g.outDeg[n], g.inDeg[n]
	switch n {
	case c.Src:
		others := out - 1
		switch {
		case others == 0 && in == 0:
			return NoConflict
		case others > 0 && in == 0:
			return OutgoingConflict
		case others == 0 && in > 0:
			return MixedConflict
		default:
			return MixedConflict
		}
	case c.Dst:
		others := in - 1
		switch {
		case others == 0 && out == 0:
			return NoConflict
		case others > 0 && out == 0:
			return IncomingConflict
		case others == 0 && out > 0:
			return MixedConflict
		default:
			return MixedConflict
		}
	}
	return NoConflict
}

// ConflictRule selects which pairs of communications conflict, i.e. cannot
// be in the "send" state simultaneously in the Myrinet state-set model.
type ConflictRule int

const (
	// SameRole: conflict iff same source node or same destination node
	// (the literal rule of Section V-B; reproduces Figure 6 exactly).
	SameRole ConflictRule = iota
	// AnyEndpoint: conflict iff the two communications share any node in
	// any role. Kept for the EXP-A2 ablation.
	AnyEndpoint
)

func (r ConflictRule) String() string {
	switch r {
	case SameRole:
		return "same-role"
	case AnyEndpoint:
		return "any-endpoint"
	default:
		return fmt.Sprintf("ConflictRule(%d)", int(r))
	}
}

// ConflictAdj returns the conflict adjacency matrix among communications
// under the given rule. adj[i][j] is true iff comms i and j conflict.
func (g *Graph) ConflictAdj(rule ConflictRule) [][]bool {
	n := len(g.comms)
	adj := make([][]bool, n)
	row := make([]bool, n*n)
	for i := range adj {
		adj[i], row = row[:n:n], row[n:]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ci, cj := g.comms[i], g.comms[j]
			var conflict bool
			switch rule {
			case SameRole:
				conflict = ci.Src == cj.Src || ci.Dst == cj.Dst
			case AnyEndpoint:
				conflict = ci.Src == cj.Src || ci.Dst == cj.Dst ||
					ci.Src == cj.Dst || ci.Dst == cj.Src
			}
			adj[i][j] = conflict
			adj[j][i] = conflict
		}
	}
	return adj
}

// DOT renders the scheme in Graphviz dot syntax (edge labels are the
// communication labels). Useful for debugging and documentation.
func (g *Graph) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %s {\n", name)
	for _, n := range g.Nodes() {
		fmt.Fprintf(&sb, "  n%d [label=\"%d\"];\n", n, n)
	}
	for _, c := range g.comms {
		fmt.Fprintf(&sb, "  n%d -> n%d [label=%q];\n", c.Src, c.Dst, c.Label)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String summarizes the scheme on one line, e.g. "a:0>1 b:0>2".
func (g *Graph) String() string {
	parts := make([]string, len(g.comms))
	for i, c := range g.comms {
		parts[i] = fmt.Sprintf("%s:%d>%d", c.Label, c.Src, c.Dst)
	}
	return strings.Join(parts, " ")
}
