package core

import (
	"fmt"
	"strings"

	"aladdin/internal/constraint"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// Explanation reports why a container can or cannot be placed against
// a given cluster state — the operator-facing answer to "why is my
// container pending?".
type Explanation struct {
	Container string
	// Chosen is the machine the search would pick now (Invalid when
	// none qualifies).
	Chosen topology.MachineID
	// PrunedSubClusters and PrunedRacks count aggregate subtrees the
	// tiered network let the search skip outright.
	PrunedSubClusters, PrunedRacks int
	// ResourceRejected and BlacklistRejected count machines that were
	// individually examined and failed.
	ResourceRejected, BlacklistRejected int
	// SampleBlockers lists up to 5 (machine, blocking app) pairs for
	// blacklist rejections, the actionable part of the answer.
	SampleBlockers []Blocker
}

// Blocker names one anti-affinity blockage.
type Blocker struct {
	Machine topology.MachineID
	// Apps lists applications placed on the machine that conflict
	// with the explained container's app.
	Apps []string
}

// Placeable reports whether a feasible machine exists.
func (e *Explanation) Placeable() bool { return e.Chosen != topology.Invalid }

// String renders the explanation for logs.
func (e *Explanation) String() string {
	var b strings.Builder
	if e.Placeable() {
		fmt.Fprintf(&b, "%s: placeable on machine %d", e.Container, e.Chosen)
	} else {
		fmt.Fprintf(&b, "%s: UNPLACEABLE", e.Container)
	}
	fmt.Fprintf(&b, " (pruned %d sub-clusters, %d racks; rejected %d on resources, %d on anti-affinity",
		e.PrunedSubClusters, e.PrunedRacks, e.ResourceRejected, e.BlacklistRejected)
	if len(e.SampleBlockers) > 0 {
		b.WriteString("; blockers:")
		for _, bl := range e.SampleBlockers {
			fmt.Fprintf(&b, " machine %d ← %s", bl.Machine, strings.Join(bl.Apps, "+"))
		}
	}
	b.WriteString(")")
	return b.String()
}

// Explain diagnoses one container against the live cluster and
// assignment, without mutating anything.  The blacklist state is
// reconstructed from the assignment.
func Explain(w *workload.Workload, cluster *topology.Cluster, asg constraint.Assignment, containerID string) (*Explanation, error) {
	target := w.Container(containerID)
	if target == nil {
		return nil, fmt.Errorf("core: explain: %w %q", ErrUnknownContainer, containerID)
	}
	bl := constraint.NewBlacklist(w, cluster.Size())
	// Blacklist reconstruction is order-independent: Place only
	// accumulates per-machine conflict sets, so visiting the
	// assignment in map order is safe.
	//aladdin:nondeterministic-ok commutative set accumulation
	for id, m := range asg {
		if c := w.Container(id); c != nil {
			bl.Place(m, c)
		}
	}
	agg := newAggregates(cluster, DefaultOptions())

	e := &Explanation{Container: containerID, Chosen: topology.Invalid}
	for _, gname := range cluster.SubClusters() {
		if !agg.subAdmits(gname, target.Demand) {
			e.PrunedSubClusters++
			continue
		}
		for _, rname := range cluster.SubCluster(gname).Racks {
			if !agg.rackAdmits(rname, target.Demand) {
				e.PrunedRacks++
				continue
			}
			for _, mid := range cluster.Rack(rname).Machines {
				m := cluster.Machine(mid)
				if !m.Fits(target.Demand) {
					e.ResourceRejected++
					continue
				}
				if !bl.Allows(mid, target) {
					e.BlacklistRejected++
					if len(e.SampleBlockers) < 5 {
						e.SampleBlockers = append(e.SampleBlockers, Blocker{
							Machine: mid,
							Apps:    blockingApps(w, m, target),
						})
					}
					continue
				}
				if e.Chosen == topology.Invalid {
					e.Chosen = mid
				}
			}
		}
	}
	return e, nil
}

// blockingApps lists the distinct apps on machine m that conflict
// with the target's app.
func blockingApps(w *workload.Workload, m *topology.Machine, target *workload.Container) []string {
	seen := map[string]bool{}
	var out []string
	for _, id := range m.ContainerIDs() {
		other := w.Container(id)
		if other == nil || seen[other.App] {
			continue
		}
		conflict := false
		if other.App == target.App {
			conflict = w.AntiAffine(target.App, target.App)
		} else {
			conflict = w.AntiAffine(other.App, target.App)
		}
		if conflict {
			seen[other.App] = true
			out = append(out, other.App)
		}
	}
	return out
}
