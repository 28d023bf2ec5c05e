package graph

// DenseLimit bounds the node ids that dense per-node tables intern.
// Schemes use cluster node indices (tens to thousands); hot paths that
// meet a larger id fall back to their map- or graph-based form rather
// than allocating a huge stamp table.
const DenseLimit = 1 << 22

// Interner assigns dense slots 0,1,2,... to the distinct node ids seen
// during one epoch, in first-seen order. Begin starts an epoch in O(1):
// old slots are invalidated by an epoch stamp instead of clearing the
// per-node tables, so an interner reused across epochs allocates only
// when a node id beyond every earlier one appears. Callers keep ids in
// [0, DenseLimit).
type Interner struct {
	slot  []int32
	stamp []uint64
	epoch uint64
	n     int32 // slots issued this epoch
}

// Begin starts a new epoch: every node id is unseen again.
func (it *Interner) Begin() {
	it.epoch++
	it.n = 0
}

// Intern returns the slot for node id v, issuing a fresh one on first
// sight this epoch.
func (it *Interner) Intern(v int) (slot int32, fresh bool) {
	if v >= len(it.slot) {
		n := v + 1
		if n < 2*len(it.slot) {
			n = 2 * len(it.slot)
		}
		ns := make([]int32, n)
		copy(ns, it.slot)
		it.slot = ns
		nst := make([]uint64, n)
		copy(nst, it.stamp)
		it.stamp = nst
	}
	if it.stamp[v] != it.epoch {
		it.stamp[v] = it.epoch
		it.slot[v] = it.n
		it.n++
		return it.slot[v], true
	}
	return it.slot[v], false
}

// Len returns the number of slots issued this epoch.
func (it *Interner) Len() int { return int(it.n) }

// Span returns the size of the per-node tables: one past the largest
// node id ever interned, rounded up by growth.
func (it *Interner) Span() int { return len(it.slot) }
