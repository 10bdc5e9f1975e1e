package core

import (
	"fmt"
	"io"

	"aladdin/internal/constraint"
	"aladdin/internal/flow"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// ExportNetworkDOT builds the tiered flow network for the workload
// and cluster, replays the given assignment as flow augmentations,
// and renders the result in Graphviz DOT format — the picture of
// Fig. 4, with live flows.  Useful for debugging small scenarios:
//
//	core.ExportNetworkDOT(os.Stdout, w, cluster, res.Assignment)
func ExportNetworkDOT(out io.Writer, w *workload.Workload, cluster *topology.Cluster, asg constraint.Assignment) error {
	n := buildNetwork(w, cluster)
	// Deterministic replay order.
	for _, c := range w.Containers() {
		m, ok := asg[c.ID]
		if !ok {
			continue
		}
		if err := n.augment(c, m); err != nil {
			return fmt.Errorf("core: export: %w", err)
		}
	}

	// Build reverse node-name table from the construction layout.
	names := make(map[flow.NodeID]string, n.g.NumNodes())
	names[n.source] = "s"
	names[n.sink] = "t"
	for i, a := range w.Apps() {
		names[n.appNode[i]] = "A:" + a.ID
	}
	for i, sub := range cluster.SubClusters() {
		names[n.subNode[i]] = "G:" + sub
	}
	// Rack and machine nodes are the From/To endpoints of their arcs.
	for _, rname := range cluster.Racks() {
		arc := n.g.Arc(n.grArc[rname])
		names[arc.To] = "R:" + rname
	}
	for _, m := range cluster.Machines() {
		arc := n.g.Arc(int(n.ntArc[m.ID]))
		names[arc.From] = "N:" + m.Name
	}
	for i, c := range w.Containers() {
		arc := n.g.Arc(int(n.srcArc[i]))
		names[arc.To] = "T:" + c.ID
	}
	return flow.WriteDOT(out, n.g, func(v flow.NodeID) string {
		if name, ok := names[v]; ok {
			return name
		}
		return fmt.Sprintf("n%d", v)
	})
}
