package core

import (
	"fmt"

	"aladdin/internal/flow"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// network is the materialised tiered flow network of §III.A.  The
// aggregate tiers (application, sub-cluster, rack) reduce the edge
// count from O(|T|·|N|) to O(|T| + |A|·|G| + |R| + |N|); the graph
// carries the CPU dimension as its scalar flow (the evaluation's
// dimension) while the multidimensional and non-linear parts of the
// capacity function — memory fit and blacklists — are enforced by the
// search (search.go) before a path is augmented.
//
// All per-placement state is ordinal-indexed in struct-of-arrays
// form: a container is its app-major workload ordinal (Container.Ord)
// and its app is appOf[ord], so assembling a path costs six int32
// slice reads and zero string hashing.  The name-keyed tables
// (appOrd, subOrd, grArc) survive only for the API/export boundary:
// construction, tests, and DOT export.
type network struct {
	g      *flow.Graph
	source flow.NodeID
	sink   flow.NodeID

	// Ordinal tables, fixed at construction.  appOrd/subOrd are the
	// boundary resolvers; the hot path reads appOf.
	appOrd  map[string]int // app ID -> ordinal in workload order
	appBase []int          // app ordinal -> first container ordinal
	appOf   []int32        // container ordinal -> app ordinal
	subOrd  map[string]int // sub-cluster name -> ordinal
	numSubs int

	appNode []flow.NodeID // by app ordinal
	subNode []flow.NodeID // by sub-cluster ordinal

	// Arc indexes for path assembly, by tier.  int32: a graph with
	// 2^31 arcs would be ~100 GB; the narrow type halves the table
	// footprint so the whole path-assembly working set stays cache
	// resident.
	srcArc []int32 // container ordinal -> s→T arc
	taArc  []int32 // container ordinal -> T→A arc
	// agArc[appOrd*numSubs+subOrd] is the A→G arc index plus one
	// (created lazily; zero marks an absent arc).
	agArc []int32
	grArc map[string]int // rack name -> G→R arc (export and tests)
	// grArcOf mirrors grArc per machine so the hot path never touches
	// the rack-name map.
	grArcOf []int32 // machine ID -> its rack's G→R arc
	subOf   []int32 // machine ID -> its sub-cluster's ordinal
	rnArc   []int32 // machine ID -> R→N arc
	ntArc   []int32 // machine ID -> N→t arc

	// units memoises the flow units (CPU milli, min 1) each placed
	// container pushed, by container ordinal, so migrations can cancel
	// exactly that flow.  Units are ≥ 1, so zero marks "not placed".
	units []int64

	cluster *topology.Cluster
}

const infiniteCap = int64(1) << 40

// flowUnits is the scalar flow a container pushes: its CPU demand in
// milli-cores, floored at 1 so zero-CPU containers still register.
func flowUnits(c *workload.Container) int64 {
	u := c.Demand.Dim(resource.CPU)
	if u < 1 {
		u = 1
	}
	return u
}

// buildNetwork constructs the tiered graph for a workload/cluster
// pair.
func buildNetwork(w *workload.Workload, cluster *topology.Cluster) *network {
	apps := w.Apps()
	subs := cluster.SubClusters()
	n := &network{
		g:       flow.NewGraph(0),
		appOrd:  make(map[string]int, len(apps)),
		appBase: make([]int, len(apps)),
		appOf:   make([]int32, w.NumContainers()),
		subOrd:  make(map[string]int, len(subs)),
		numSubs: len(subs),
		appNode: make([]flow.NodeID, len(apps)),
		subNode: make([]flow.NodeID, len(subs)),
		srcArc:  make([]int32, w.NumContainers()),
		taArc:   make([]int32, w.NumContainers()),
		agArc:   make([]int32, len(apps)*len(subs)),
		grArc:   make(map[string]int, len(cluster.Racks())),
		grArcOf: make([]int32, cluster.Size()),
		subOf:   make([]int32, cluster.Size()),
		rnArc:   make([]int32, cluster.Size()),
		ntArc:   make([]int32, cluster.Size()),
		units:   make([]int64, w.NumContainers()),
		cluster: cluster,
	}
	g := n.g
	// Node and arc counts are known up front (A→G arcs materialise
	// lazily; reserve one per app as a working estimate).
	nodes := len(cluster.Machines())
	g.Grow(2+len(apps)+len(subs)+len(cluster.Racks())+nodes+w.NumContainers(),
		len(cluster.Racks())+2*nodes+2*w.NumContainers()+len(apps))
	n.source = g.AddNode()
	n.sink = g.AddNode()

	// Application tier.
	base := 0
	for i, a := range apps {
		n.appOrd[a.ID] = i
		n.appBase[i] = base
		base += a.Replicas
		n.appNode[i] = g.AddNode()
	}
	// Sub-cluster (G) tier.
	for i, name := range subs {
		n.subOrd[name] = i
		n.subNode[i] = g.AddNode()
	}
	// Rack (R) tier and machine (N) tier.
	for _, rname := range cluster.Racks() {
		rack := cluster.Rack(rname)
		rn := g.AddNode()
		sub := n.subOrd[rack.Cluster]
		gr := g.MustAddArc(n.subNode[sub], rn, infiniteCap, 0)
		n.grArc[rname] = gr
		for _, mid := range rack.Machines {
			m := cluster.Machine(mid)
			mn := g.AddNode()
			n.grArcOf[mid] = int32(gr)
			n.subOf[mid] = int32(sub)
			n.rnArc[mid] = int32(g.MustAddArc(rn, mn, infiniteCap, 0))
			cap := m.Capacity().Dim(resource.CPU)
			if cap < 1 {
				cap = 1
			}
			n.ntArc[mid] = int32(g.MustAddArc(mn, n.sink, cap, 0))
		}
	}
	// Container (T) tier: s→T with capacity = demand (c(s,Ti) of
	// Equation 6), T→A infinite.  Containers are app-major, so the
	// loop index is exactly each container's Ord and the app ordinal
	// table fills in one pass.
	for i, c := range w.Containers() {
		tn := g.AddNode()
		ao := n.appOrd[c.App]
		n.appOf[i] = int32(ao)
		n.srcArc[i] = int32(g.MustAddArc(n.source, tn, flowUnits(c), 0))
		n.taArc[i] = int32(g.MustAddArc(tn, n.appNode[ao], infiniteCap, 0))
	}
	return n
}

// ctOrd resolves a container to its app ordinal and app-major
// workload ordinal.  Containers carry their ordinal (Container.Ord),
// so this is two slice reads — the string-map probe the pre-SoA
// layout paid per path assembly is gone.
func (n *network) ctOrd(c *workload.Container) (app, ct int, err error) {
	if c.Ord < 0 || c.Ord >= len(n.appOf) {
		return 0, 0, fmt.Errorf("core: container %s ordinal %d outside workload universe", c.ID, c.Ord)
	}
	return int(n.appOf[c.Ord]), c.Ord, nil
}

// arcAGOrd returns (creating on first use) the A→G arc for an app and
// sub-cluster, by ordinal.  Lazy creation keeps the A×G product
// sparse in the graph: only pairs actually used by placements
// materialise as arcs.
func (n *network) arcAGOrd(app, sub int) int {
	slot := app*n.numSubs + sub
	if idx := n.agArc[slot]; idx != 0 {
		return int(idx) - 1
	}
	idx := n.g.MustAddArc(n.appNode[app], n.subNode[sub], infiniteCap, 0)
	n.agArc[slot] = int32(idx) + 1
	return idx
}

// arcAG is the by-name view of arcAGOrd, for tests and tooling.
func (n *network) arcAG(appID, sub string) int {
	return n.arcAGOrd(n.appOrd[appID], n.subOrd[sub])
}

// pathForOrd assembles the arc path s→T→A→G→R→N→t for placing the
// container with (app, container) ordinals on machine m into the
// caller's buffer (no allocation).
func (n *network) pathForOrd(ao, ct int, m topology.MachineID, path *[6]int) error {
	if int(m) < 0 || int(m) >= len(n.rnArc) {
		return fmt.Errorf("core: unknown machine %d", m)
	}
	path[0] = int(n.srcArc[ct])
	path[1] = int(n.taArc[ct])
	path[2] = n.arcAGOrd(ao, int(n.subOf[m]))
	path[3] = int(n.grArcOf[m])
	path[4] = int(n.rnArc[m])
	path[5] = int(n.ntArc[m])
	return nil
}

// pathFor is pathForOrd with the container resolved first, for tests.
func (n *network) pathFor(c *workload.Container, m topology.MachineID, path *[6]int) error {
	ao, ct, err := n.ctOrd(c)
	if err != nil {
		return err
	}
	return n.pathForOrd(ao, ct, m, path)
}

// augment pushes the container's flow along its path to machine m.
func (n *network) augment(c *workload.Container, m topology.MachineID) error {
	ao, ct, err := n.ctOrd(c)
	if err != nil {
		return err
	}
	var path [6]int
	if err := n.pathForOrd(ao, ct, m, &path); err != nil {
		return err
	}
	u := flowUnits(c)
	if err := flow.AugmentPath(n.g, path[:], u); err != nil {
		return fmt.Errorf("core: augment %s on machine %d: %w", c.ID, m, err)
	}
	n.units[ct] = u
	return nil
}

// cancel withdraws the container's flow from machine m (used by
// migration and preemption).  Cancelling pushes the same units along
// the residual twins in reverse order, which is a valid t→s path.
func (n *network) cancel(c *workload.Container, m topology.MachineID) error {
	ao, ct, err := n.ctOrd(c)
	if err != nil {
		return err
	}
	u := n.units[ct]
	if u == 0 {
		return fmt.Errorf("core: cancel %s: no recorded flow", c.ID)
	}
	var path [6]int
	if err := n.pathForOrd(ao, ct, m, &path); err != nil {
		return err
	}
	var rev [6]int
	for i := range path {
		rev[len(path)-1-i] = path[i] ^ 1
	}
	if err := flow.AugmentPath(n.g, rev[:], u); err != nil {
		return fmt.Errorf("core: cancel %s on machine %d: %w", c.ID, m, err)
	}
	n.units[ct] = 0
	return nil
}

// totalFlow returns the flow currently leaving the source.
func (n *network) totalFlow() int64 {
	var total int64
	for _, idx := range n.srcArc {
		total += n.g.Arc(int(idx)).Flow()
	}
	return total
}

// checkConservation validates Equation 2 on every interior node.
func (n *network) checkConservation() error {
	ex := n.g.Excess()
	for v, e := range ex {
		id := flow.NodeID(v)
		if id == n.source || id == n.sink {
			continue
		}
		if e != 0 {
			return fmt.Errorf("core: node %d violates flow conservation: excess %d", v, e)
		}
	}
	return nil
}
