package core

import (
	"math"

	"aladdin/internal/resource"
	"aladdin/internal/topology"
)

// capIndex is the hierarchical residual-capacity index: a tournament
// tree over the cluster's machines in canonical traversal order
// (sub-cluster → rack → machine, the walk the naive search performs).
// Every node aggregates its subtree's residual capacity, so the three
// searches the scheduler runs per container become logarithmic:
//
//   - first-fit (DL on): descend to the leftmost leaf whose free
//     vector admits the demand — identical to the naive scan's
//     first-fit order, without visiting non-admitting machines;
//   - best-fit (DL off): branch-and-bound for the minimum-leftover-CPU
//     machine, pruning subtrees whose minimum free CPU already
//     exceeds the incumbent;
//   - range max-free: per-rack / per-sub-cluster maximum free vectors
//     (the R and G tier residuals) as O(log n) range queries, which is
//     what makes aggregate maintenance incremental.
//
// Because racks and sub-clusters are contiguous spans of the
// traversal, one tree serves all tiers.  Each aggregate is kept in
// two views: over all machines, and over machines hosting at least
// one container ("used"), so consolidation searches that must never
// open an empty machine (exclusion.skipEmpty) prune empty subtrees
// instead of enumerating them.
type capIndex struct {
	cluster *topology.Cluster
	tr      topology.Traversal

	// leaves is the leaf-tier width: the next power of two ≥ machine
	// count.  Nodes use 1-based heap layout (children of i are 2i and
	// 2i+1); leaf for traversal position p is leaves+p.
	leaves int

	// nodes holds each tree node's aggregates contiguously so one
	// cache line serves a whole node during descent and pull chains.
	nodes []idxNode
}

// idxNode aggregates one subtree.  maxFree/minCPU cover every up
// machine in the subtree; the Used variants cover only machines
// hosting ≥ 1 container.  Empty sets hold resource.NoCapacity /
// MaxInt64 so they admit nothing and never win a minimisation.  minID
// is the smallest up-machine ID in the subtree: the best-fit
// tie-break is (leftover CPU, then machine ID), so a subtree whose
// smallest ID exceeds the incumbent's cannot win a tie and is pruned.
type idxNode struct {
	maxFree     resource.Vector
	maxFreeUsed resource.Vector
	minCPU      int64
	minCPUUsed  int64
	minID       topology.MachineID
}

// noMachine is the minID sentinel for empty subtrees.
const noMachine = topology.MachineID(math.MaxInt)

// idxVisitor is the leaf acceptance check the searches apply on top of
// the index's resource admission (blacklist, exclusions, live-state
// re-check).  An interface over a caller-held struct rather than a
// closure: the searcher reuses one visitor value across searches, so
// converting it to an interface never allocates and the hot path stays
// heap-free.
type idxVisitor interface {
	visit(topology.MachineID) bool
}

func newCapIndex(cluster *topology.Cluster) *capIndex {
	// Sized by the machines the cluster schedules on, not by its ID
	// space: a shard's view spans the parent's IDs but owns a slice.
	tr := cluster.Traverse()
	leaves := 1
	for leaves < len(tr.Order) {
		leaves <<= 1
	}
	x := &capIndex{
		cluster: cluster,
		tr:      tr,
		leaves:  leaves,
		nodes:   make([]idxNode, 2*leaves),
	}
	x.rebuild()
	return x
}

// leafValue derives the leaf node contents for traversal position p
// from the machine's live state.  Padding positions beyond the
// machine count and down machines both collapse to the empty-subtree
// sentinel: a failed machine has no residual capacity in any view, so
// every search prunes it exactly like a hole in the traversal.
func (x *capIndex) leafValue(p int) idxNode {
	empty := idxNode{
		maxFree:     resource.NoCapacity,
		maxFreeUsed: resource.NoCapacity,
		minCPU:      math.MaxInt64,
		minCPUUsed:  math.MaxInt64,
		minID:       noMachine,
	}
	if p >= len(x.tr.Order) {
		return empty
	}
	mid := x.tr.Order[p]
	m := x.cluster.Machine(mid)
	if !m.Up() {
		return empty
	}
	free := m.Free()
	nd := idxNode{
		maxFree:     free,
		maxFreeUsed: resource.NoCapacity,
		minCPU:      free.Dim(resource.CPU),
		minCPUUsed:  math.MaxInt64,
		minID:       mid,
	}
	if m.NumContainers() > 0 {
		nd.maxFreeUsed = free
		nd.minCPUUsed = nd.minCPU
	}
	return nd
}

// pullValue recomputes an interior node from its children.
func (x *capIndex) pullValue(node int) idxNode {
	l, r := &x.nodes[2*node], &x.nodes[2*node+1]
	nd := idxNode{
		maxFree:     l.maxFree.Max(r.maxFree),
		maxFreeUsed: l.maxFreeUsed.Max(r.maxFreeUsed),
		minCPU:      min64(l.minCPU, r.minCPU),
		minCPUUsed:  min64(l.minCPUUsed, r.minCPUUsed),
		minID:       l.minID,
	}
	if r.minID < nd.minID {
		nd.minID = r.minID
	}
	return nd
}

// update refreshes the index after machine m's free vector or
// occupancy changed: one leaf write plus a root-ward pull chain that
// stops as soon as an ancestor's aggregate is unchanged (a placement
// that does not move a subtree's extremes is O(1)).
func (x *capIndex) update(m topology.MachineID) {
	p := x.tr.Pos[m]
	leaf := x.leaves + p
	nd := x.leafValue(p)
	if x.nodes[leaf] == nd {
		return
	}
	x.nodes[leaf] = nd
	for node := leaf >> 1; node >= 1; node >>= 1 {
		nd := x.pullValue(node)
		if x.nodes[node] == nd {
			return
		}
		x.nodes[node] = nd
	}
}

// rebuild recomputes every node from live machine state — the
// full-rebuild safety valve and the constructor's initialiser.
func (x *capIndex) rebuild() {
	for p := 0; p < x.leaves; p++ {
		x.nodes[x.leaves+p] = x.leafValue(p)
	}
	for node := x.leaves - 1; node >= 1; node-- {
		x.nodes[node] = x.pullValue(node)
	}
}

// nodeMax returns the node's max-free vector in the requested view.
func (x *capIndex) nodeMax(node int, usedOnly bool) resource.Vector {
	if usedOnly {
		return x.nodes[node].maxFreeUsed
	}
	return x.nodes[node].maxFree
}

// nodeMinCPU returns the node's min-free-CPU in the requested view.
func (x *capIndex) nodeMinCPU(node int, usedOnly bool) int64 {
	if usedOnly {
		return x.nodes[node].minCPUUsed
	}
	return x.nodes[node].minCPU
}

// rangeMaxFree returns the component-wise maximum free vector over
// traversal positions [lo, hi) — the residual capacity of a rack or
// sub-cluster tier vertex — in O(log machines).
func (x *capIndex) rangeMaxFree(span topology.Span) resource.Vector {
	out := resource.NoCapacity
	lo, hi := span.Lo+x.leaves, span.Hi+x.leaves
	for lo < hi {
		if lo&1 == 1 {
			out = out.Max(x.nodes[lo].maxFree)
			lo++
		}
		if hi&1 == 1 {
			hi--
			out = out.Max(x.nodes[hi].maxFree)
		}
		lo >>= 1
		hi >>= 1
	}
	if out == resource.NoCapacity {
		// Preserve the naive aggregate's identity (zero vector) for
		// empty ranges.
		return resource.Vector{}
	}
	return out
}

// firstFit returns the first machine in traversal order within
// [span.Lo, span.Hi) whose free vector admits the demand and whose
// visit callback accepts it (blacklist, exclusions); Invalid when
// none does.  With exclusively resource-feasible rejections this is
// O(log machines); every visit rejection adds one descent.
func (x *capIndex) firstFit(span topology.Span, demand resource.Vector, usedOnly bool, visit idxVisitor) topology.MachineID {
	return x.firstFitNode(1, 0, x.leaves, span, demand, usedOnly, visit)
}

func (x *capIndex) firstFitNode(node, nodeLo, nodeHi int, span topology.Span, demand resource.Vector, usedOnly bool, visit idxVisitor) topology.MachineID {
	if nodeHi <= span.Lo || nodeLo >= span.Hi {
		return topology.Invalid
	}
	if !demand.Fits(x.nodeMax(node, usedOnly)) {
		return topology.Invalid
	}
	if nodeHi-nodeLo == 1 {
		mid := x.tr.Order[nodeLo]
		if visit.visit(mid) {
			return mid
		}
		return topology.Invalid
	}
	mid := (nodeLo + nodeHi) / 2
	if got := x.firstFitNode(2*node, nodeLo, mid, span, demand, usedOnly, visit); got != topology.Invalid {
		return got
	}
	return x.firstFitNode(2*node+1, mid, nodeHi, span, demand, usedOnly, visit)
}

// bestFitState carries the branch-and-bound incumbent: the machine
// with the smallest (leftover CPU, machine ID) found so far.
type bestFitState struct {
	id   topology.MachineID
	left int64
}

func newBestFitState() bestFitState {
	return bestFitState{id: topology.Invalid, left: math.MaxInt64}
}

// merge folds another incumbent in under the (leftover, ID) order.
func (st *bestFitState) merge(o bestFitState) {
	if o.id == topology.Invalid {
		return
	}
	if o.left < st.left || (o.left == st.left && o.id < st.id) {
		*st = o
	}
}

// bestFit finds the admitting machine within the span minimising
// leftover CPU after placement, ties broken by machine ID — the
// explicit tie-break the no-DL search converges to.  Subtrees are
// pruned when they cannot admit the demand or cannot beat the
// incumbent (their minimum free CPU is already larger, or equal with
// no smaller machine ID available).
func (x *capIndex) bestFit(span topology.Span, demand resource.Vector, usedOnly bool, visit idxVisitor, st *bestFitState) {
	x.bestFitNode(1, 0, x.leaves, span, demand, usedOnly, visit, st)
}

func (x *capIndex) bestFitNode(node, nodeLo, nodeHi int, span topology.Span, demand resource.Vector, usedOnly bool, visit idxVisitor, st *bestFitState) {
	if nodeHi <= span.Lo || nodeLo >= span.Hi {
		return
	}
	if !demand.Fits(x.nodeMax(node, usedOnly)) {
		return
	}
	if st.id != topology.Invalid {
		// Lower bound on any leftover in this subtree.
		bound := x.nodeMinCPU(node, usedOnly) - demand.Dim(resource.CPU)
		if bound > st.left || (bound == st.left && x.nodes[node].minID > st.id) {
			return
		}
	}
	if nodeHi-nodeLo == 1 {
		mid := x.tr.Order[nodeLo]
		if !visit.visit(mid) {
			return
		}
		// Score from live machine state, matching the visit callback's
		// live fitness check, so a stale leaf cannot skew the ranking.
		left := x.cluster.Machine(mid).Free().Dim(resource.CPU) - demand.Dim(resource.CPU)
		st.merge(bestFitState{id: mid, left: left})
		return
	}
	half := (nodeLo + nodeHi) / 2
	x.bestFitNode(2*node, nodeLo, half, span, demand, usedOnly, visit, st)
	x.bestFitNode(2*node+1, half, nodeHi, span, demand, usedOnly, visit, st)
}

// collectFits appends, in traversal order, machines within the span
// that admit the demand and pass the visit callback, stopping at
// limit (≤ 0 = unlimited).  Returns false once the limit is reached.
func (x *capIndex) collectFits(span topology.Span, demand resource.Vector, usedOnly bool, visit idxVisitor, limit int, out *[]topology.MachineID) bool {
	return x.collectFitsNode(1, 0, x.leaves, span, demand, usedOnly, visit, limit, out)
}

func (x *capIndex) collectFitsNode(node, nodeLo, nodeHi int, span topology.Span, demand resource.Vector, usedOnly bool, visit idxVisitor, limit int, out *[]topology.MachineID) bool {
	if nodeHi <= span.Lo || nodeLo >= span.Hi {
		return true
	}
	if !demand.Fits(x.nodeMax(node, usedOnly)) {
		return true
	}
	if nodeHi-nodeLo == 1 {
		mid := x.tr.Order[nodeLo]
		if visit.visit(mid) {
			*out = append(*out, mid)
			if limit > 0 && len(*out) >= limit {
				return false
			}
		}
		return true
	}
	half := (nodeLo + nodeHi) / 2
	if !x.collectFitsNode(2*node, nodeLo, half, span, demand, usedOnly, visit, limit, out) {
		return false
	}
	return x.collectFitsNode(2*node+1, half, nodeHi, span, demand, usedOnly, visit, limit, out)
}

// all returns the whole-cluster span.
func (x *capIndex) all() topology.Span {
	return topology.Span{Lo: 0, Hi: len(x.tr.Order)}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
