package pastry

import (
	"slices"
	"sort"

	"past/internal/id"
)

// Leaf-set maintenance. The leaf set holds the l/2 nodes with numerically
// closest larger nodeIds (the clockwise side, leafHi) and the l/2 nodes
// with numerically closest smaller nodeIds (the counter-clockwise side,
// leafLo), relative to the present node on the circular namespace. In a
// network with fewer than l+1 nodes a node may legitimately appear on
// both sides.

// cwLess orders a before b by clockwise distance from base.
func cwLess(base, a, b id.Node) bool {
	da, db := base.CWDist(a), base.CWDist(b)
	if c := da.Cmp(db); c != 0 {
		return c < 0
	}
	return a.Less(b)
}

// leafInsertLocked adds x to the leaf set if it belongs there, returning
// whether the set changed. Caller holds n.mu.
func (n *Node) leafInsertLocked(x id.Node) bool {
	if x == n.self || x.IsZero() {
		return false
	}
	changed := false
	if insertSide(&n.leafHi, x, n.cfg.L/2, func(a, b id.Node) bool {
		return cwLess(n.self, a, b) // successors: small CWDist(self, x) first
	}) {
		changed = true
	}
	if insertSide(&n.leafLo, x, n.cfg.L/2, func(a, b id.Node) bool {
		// predecessors: small CWDist(x, self) first
		da, db := a.CWDist(n.self), b.CWDist(n.self)
		if c := da.Cmp(db); c != 0 {
			return c < 0
		}
		return a.Less(b)
	}) {
		changed = true
	}
	return changed
}

// insertSide inserts x into a side kept sorted by less, capped at max.
func insertSide(side *[]id.Node, x id.Node, max int, less func(a, b id.Node) bool) bool {
	s := *side
	for _, m := range s {
		if m == x {
			return false
		}
	}
	s = append(s, x)
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
	if len(s) > max {
		// x may itself be the trimmed entry; report change only if kept.
		trimmed := s[max:]
		s = s[:max]
		*side = s
		for _, t := range trimmed {
			if t == x {
				return false
			}
		}
		return true
	}
	*side = s
	return true
}

// leafRemoveLocked removes x from both sides; reports whether anything
// was removed. Caller holds n.mu.
func (n *Node) leafRemoveLocked(x id.Node) bool {
	rm := func(side *[]id.Node) bool {
		s := *side
		for i, m := range s {
			if m == x {
				*side = append(s[:i], s[i+1:]...)
				return true
			}
		}
		return false
	}
	a := rm(&n.leafLo)
	b := rm(&n.leafHi)
	return a || b
}

// LeafSet returns the members of the leaf set, deduplicated, ordered by
// ring distance from this node (closest first).
func (n *Node) LeafSet() []id.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leafSetLocked()
}

func (n *Node) leafSetLocked() []id.Node {
	seen := make(map[id.Node]bool, len(n.leafLo)+len(n.leafHi))
	out := make([]id.Node, 0, len(n.leafLo)+len(n.leafHi))
	for _, s := range [][]id.Node{n.leafLo, n.leafHi} {
		for _, m := range s {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return n.self.Closer(out[i], out[j]) })
	return out
}

// LeafSides returns copies of the smaller-side and larger-side leaf
// lists, each ordered closest-first. Used by the state printer and by
// PAST's "two most distant members" overflow procedure.
func (n *Node) LeafSides() (lo, hi []id.Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]id.Node(nil), n.leafLo...), append([]id.Node(nil), n.leafHi...)
}

// inLeafRangeLocked reports whether key lies within the span of the leaf
// set (from the farthest counter-clockwise member, through this node, to
// the farthest clockwise member). When a side is not full the node knows
// the whole ring on that side, so the answer is true. When the two sides
// share a member they meet around the ring (l/2+1 <= N <= l+1 nodes), so
// the span is the whole ring too; the arc from the farthest
// counter-clockwise to the farthest clockwise member would then cut out
// this node's own neighbourhood. Caller holds n.mu.
func (n *Node) inLeafRangeLocked(key id.Node) bool {
	loFull := len(n.leafLo) >= n.cfg.L/2
	hiFull := len(n.leafHi) >= n.cfg.L/2
	if !loFull || !hiFull {
		return true
	}
	for _, m := range n.leafLo {
		if slices.Contains(n.leafHi, m) {
			return true
		}
	}
	lo := n.leafLo[len(n.leafLo)-1]
	hi := n.leafHi[len(n.leafHi)-1]
	// key in [lo, hi] going clockwise.
	return lo.CWDist(key).Cmp(lo.CWDist(hi)) <= 0
}

// closestLeafAvoidingLocked returns the member of leaf set + self
// numerically closest to key, skipping excluded members (hops already
// found dead on the current route). Self is never excluded: with every
// closer member dead, this node takes over as the closest live one.
// Caller holds n.mu.
func (n *Node) closestLeafAvoidingLocked(key id.Node, excluded func(id.Node) bool) id.Node {
	best := n.self
	for _, s := range [][]id.Node{n.leafLo, n.leafHi} {
		for _, m := range s {
			if excluded(m) {
				continue
			}
			if key.Closer(m, best) {
				best = m
			}
		}
	}
	return best
}

// IsAmongKClosest reports whether this node is, to its knowledge, among
// the k live nodes with nodeIds numerically closest to key. The test is
// sound when k <= l/2+1: if the key is inside the leaf-set span and
// fewer than k leaf members are closer to it than this node, then every
// node closer to the key is inside the leaf set, so the local answer
// matches the global one. PAST's insert and reclaim operations are
// consumed by the first such node a route encounters.
func (n *Node) IsAmongKClosest(key id.Node, k int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.inLeafRangeLocked(key) {
		return false
	}
	closer := 0
	seen := make(map[id.Node]bool, len(n.leafLo)+len(n.leafHi))
	for _, s := range [][]id.Node{n.leafLo, n.leafHi} {
		for _, m := range s {
			if !seen[m] && key.Closer(m, n.self) {
				seen[m] = true
				closer++
			}
		}
	}
	return closer < k
}

// ReplicaSet returns the k nodes (from this node's leaf set plus itself)
// with nodeIds numerically closest to key. This is the set PAST stores
// the k replicas of a file on; the paper requires k <= l/2+1 so that any
// of the k closest nodes can compute the full set from its own leaf set.
func (n *Node) ReplicaSet(key id.Node, k int) []id.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	cands := append(n.leafSetLocked(), n.self)
	sort.Slice(cands, func(i, j int) bool { return key.Closer(cands[i], cands[j]) })
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// FragmentTargets returns up to want distinct nodes for erasure-coded
// fragment placement: the leaf set plus this node, ordered numerically
// closest to key. Unlike ReplicaSet it is not bounded by k — an EC
// object spreads m+n fragments across as much of the leaf set as the
// coding needs, so a single node loss costs at most one fragment.
func (n *Node) FragmentTargets(key id.Node, want int) []id.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	cands := append(n.leafSetLocked(), n.self)
	sort.Slice(cands, func(i, j int) bool { return key.Closer(cands[i], cands[j]) })
	if len(cands) > want {
		cands = cands[:want]
	}
	return cands
}
