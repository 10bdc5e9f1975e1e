package core

import (
	"fmt"

	"aladdin/internal/constraint"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// AuditViolationKind classifies one invariant breach found by the
// runtime Auditor.
type AuditViolationKind int

const (
	// AuditFlowConservation: Equation 2 fails at some vertex — flow
	// into an intermediate node does not equal flow out.
	AuditFlowConservation AuditViolationKind = iota
	// AuditTierFlow: a tier arc's flow disagrees with the placements
	// it should carry (a container's s→T arc vs its memoised units, a
	// machine's N→t arc vs the units of its placed containers, or the
	// network totals).
	AuditTierFlow
	// AuditIndexDrift: a tournament-tree node's cached aggregate
	// differs from the recompute over live machine state.
	AuditIndexDrift
	// AuditAggregateDrift: a rack or sub-cluster max-free aggregate
	// differs from the naive ground-truth recompute.
	AuditAggregateDrift
	// AuditAssignmentDrift: the ordinal assignment table and the
	// cluster's machine allocations disagree (a placed container's
	// machine does not host it, a hosted container is not recorded as
	// placed, or a placement sits on a down machine).
	AuditAssignmentDrift
	// AuditAntiAffinity: two anti-affine containers share a machine
	// (Equations 6–8 violated).
	AuditAntiAffinity
	// AuditPreemptionOrder: a recorded preemption evicted a victim
	// whose priority is not strictly below the claimant's — the
	// weighted-flow guarantee of §III.B broken.
	AuditPreemptionOrder
)

// String names the audit violation kind.
func (k AuditViolationKind) String() string {
	switch k {
	case AuditFlowConservation:
		return "flow-conservation"
	case AuditTierFlow:
		return "tier-flow"
	case AuditIndexDrift:
		return "index-drift"
	case AuditAggregateDrift:
		return "aggregate-drift"
	case AuditAssignmentDrift:
		return "assignment-drift"
	case AuditAntiAffinity:
		return "anti-affinity"
	case AuditPreemptionOrder:
		return "preemption-order"
	default:
		return "unknown"
	}
}

// AuditViolation is one invariant breach with a human-readable detail.
type AuditViolation struct {
	Kind   AuditViolationKind
	Detail string
}

// String renders the violation for logs.
func (v AuditViolation) String() string { return v.Kind.String() + ": " + v.Detail }

// Auditor is the runtime counterpart of aladdin-vet: where the static
// analyzers prove properties of the code, the Auditor re-derives the
// scheduler's coordinated views from ground truth and reports every
// divergence.  It is read-only (aside from flushing lazily-deferred
// aggregate refreshes, which any search would flush identically) and
// safe to call between any two scheduling operations: after each
// round, inside the simulator's failure-injection loop, or from a
// fuzzer driving random operation sequences.  A healthy session
// returns no violations; any violation means a bug in incremental
// state maintenance, not in the workload.
type Auditor struct {
	opts Options
	w    *workload.Workload
	r    *run
}

// NewAuditor builds an auditor over a session's live state.
func NewAuditor(s *Session) *Auditor {
	return &Auditor{opts: s.opts, w: s.w, r: s.r}
}

// Check runs every audit and returns the violations found, grouped in
// a fixed order: flow conservation, tier flows, index and aggregate
// drift, assignment consistency, anti-affinity, preemption ordering.
func (a *Auditor) Check() []AuditViolation {
	var out []AuditViolation
	out = append(out, a.checkFlows()...)
	out = append(out, a.checkIndex()...)
	out = append(out, a.checkAggregates()...)
	out = append(out, a.checkAssignment()...)
	out = append(out, a.checkAntiAffinity()...)
	out = append(out, a.checkPreemptions()...)
	return out
}

// checkFlows verifies Equation 2 at every vertex and then ties the
// flow values to the placements: each placed container's s→T arc
// carries exactly its flow units, each machine's N→t arc carries the
// sum over its placed containers, and the two tier totals agree.
func (a *Auditor) checkFlows() []AuditViolation {
	var out []AuditViolation
	r := a.r
	if err := r.net.checkConservation(); err != nil {
		out = append(out, AuditViolation{AuditFlowConservation, err.Error()})
	}
	perMachine := make(map[topology.MachineID]int64)
	var totalUnits int64
	for _, c := range r.w.Containers() {
		_, ct, err := r.net.ctOrd(c)
		if err != nil {
			out = append(out, AuditViolation{AuditTierFlow, err.Error()})
			continue
		}
		units := r.net.units[ct]
		srcFlow := r.net.g.Arc(int(r.net.srcArc[ct])).Flow()
		if m := r.asg[c.Ord]; m == topology.Invalid {
			if units != 0 || srcFlow != 0 {
				out = append(out, AuditViolation{AuditTierFlow, fmt.Sprintf(
					"container %s undeployed but s→T flow %d, memoised units %d", c.ID, srcFlow, units)})
			}
		} else {
			want := flowUnits(c)
			if units != want || srcFlow != want {
				out = append(out, AuditViolation{AuditTierFlow, fmt.Sprintf(
					"container %s on machine %d: s→T flow %d, memoised units %d, want %d",
					c.ID, m, srcFlow, units, want)})
			}
			perMachine[m] += want
			totalUnits += want
		}
	}
	for _, m := range r.cluster.Machines() {
		if got := r.net.g.Arc(int(r.net.ntArc[m.ID])).Flow(); got != perMachine[m.ID] {
			out = append(out, AuditViolation{AuditTierFlow, fmt.Sprintf(
				"machine %d N→t flow %d, placed container units %d", m.ID, got, perMachine[m.ID])})
		}
	}
	if got := r.net.totalFlow(); got != totalUnits {
		out = append(out, AuditViolation{AuditTierFlow, fmt.Sprintf(
			"total source flow %d, sum of placed units %d", got, totalUnits)})
	}
	return out
}

// checkIndex recomputes every tournament-tree node — leaves from live
// machine state, interior nodes from their children — and compares
// against the cached aggregates.  Skipped in naive-search mode, where
// the index is deliberately unmaintained.
func (a *Auditor) checkIndex() []AuditViolation {
	agg := a.r.search.agg
	if agg.naive {
		return nil
	}
	x := agg.idx
	var out []AuditViolation
	for p := 0; p < x.leaves; p++ {
		if got, want := x.nodes[x.leaves+p], x.leafValue(p); got != want {
			out = append(out, AuditViolation{AuditIndexDrift, fmt.Sprintf(
				"leaf %d: cached %+v, live %+v", p, got, want)})
		}
	}
	for node := x.leaves - 1; node >= 1; node-- {
		if got, want := x.nodes[node], x.pullValue(node); got != want {
			out = append(out, AuditViolation{AuditIndexDrift, fmt.Sprintf(
				"interior node %d: cached %+v, children give %+v", node, got, want)})
		}
	}
	return out
}

// checkAggregates compares the rack and sub-cluster max-free maps
// against the naive recompute from machine state.  The sub-cluster
// ground truth is derived from naive rack recomputes, not the cached
// rack map, so a corrupted rack aggregate cannot mask a matching
// sub-cluster corruption.
func (a *Auditor) checkAggregates() []AuditViolation {
	agg := a.r.search.agg
	agg.refresh() // flush legitimate lazy staleness first
	var out []AuditViolation
	for _, rname := range a.r.cluster.Racks() {
		if got, want := agg.rackMaxFree[rname], agg.naiveRackMaxFree(rname); got != want {
			out = append(out, AuditViolation{AuditAggregateDrift, fmt.Sprintf(
				"rack %s max-free: cached %s, live %s", rname, got, want)})
		}
	}
	for _, gname := range agg.subNames {
		var want resource.Vector
		for _, rname := range a.r.cluster.SubCluster(gname).Racks {
			want = want.Max(agg.naiveRackMaxFree(rname))
		}
		if got := agg.subMaxFree[gname]; got != want {
			out = append(out, AuditViolation{AuditAggregateDrift, fmt.Sprintf(
				"sub-cluster %s max-free: cached %s, live %s", gname, got, want)})
		}
	}
	return out
}

// checkAssignment cross-checks the ordinal assignment table against
// the cluster's machine allocations in both directions.
func (a *Auditor) checkAssignment() []AuditViolation {
	var out []AuditViolation
	r := a.r
	for _, c := range r.w.Containers() {
		m := r.asg[c.Ord]
		if m == topology.Invalid {
			continue
		}
		machine := r.cluster.Machine(m)
		if machine == nil {
			out = append(out, AuditViolation{AuditAssignmentDrift, fmt.Sprintf(
				"container %s assigned to unknown machine %d", c.ID, m)})
			continue
		}
		if !machine.Hosts(c.ID) {
			out = append(out, AuditViolation{AuditAssignmentDrift, fmt.Sprintf(
				"container %s assigned to machine %d which does not host it", c.ID, m)})
		}
		if !machine.Up() {
			out = append(out, AuditViolation{AuditAssignmentDrift, fmt.Sprintf(
				"container %s placed on down machine %d", c.ID, m)})
		}
	}
	for _, machine := range r.cluster.Machines() {
		for _, id := range machine.ContainerIDs() {
			c := r.w.Container(id)
			if c == nil {
				continue // pre-placed resident unknown to the workload
			}
			if r.asg[c.Ord] != machine.ID {
				out = append(out, AuditViolation{AuditAssignmentDrift, fmt.Sprintf(
					"machine %d hosts %s but the assignment records machine %d",
					machine.ID, id, r.asg[c.Ord])})
			}
		}
	}
	return out
}

// checkAntiAffinity re-audits the placement against Equations 6–8.
func (a *Auditor) checkAntiAffinity() []AuditViolation {
	var out []AuditViolation
	for _, v := range constraint.AuditAntiAffinity(a.w, a.r.assignmentMap()) {
		out = append(out, AuditViolation{AuditAntiAffinity, v.String()})
	}
	return out
}

// checkPreemptions verifies the §III.B guarantee on the run's
// preemption log: every victim's priority is strictly below its
// claimant's.  Under the DisableWeights ablation inversions are the
// expected failure mode (they are recorded as sched inversions
// instead), so the check is skipped.
func (a *Auditor) checkPreemptions() []AuditViolation {
	if a.opts.DisableWeights {
		return nil
	}
	var out []AuditViolation
	for _, ev := range a.r.preemptLog {
		if ev.victim.Priority >= ev.claimant.Priority {
			out = append(out, AuditViolation{AuditPreemptionOrder, fmt.Sprintf(
				"claimant %s (priority %d) evicted victim %s (priority %d) on machine %d",
				ev.claimant.ID, ev.claimant.Priority, ev.victim.ID, ev.victim.Priority, ev.machine)})
		}
	}
	return out
}

// AuditInvariants runs the full runtime Auditor over the session: flow
// conservation per tier, index/aggregate consistency, assignment
// cross-checks, anti-affinity, and preemption priority ordering.  It
// subsumes Audit (which covers anti-affinity only) and is meant for
// scheduling-round boundaries, failure-injection loops and fuzzing.
func (s *Session) AuditInvariants() []AuditViolation {
	if !s.r.met.on {
		return NewAuditor(s).Check()
	}
	start := s.opts.now()
	out := NewAuditor(s).Check()
	s.r.met.auditLat.Observe(s.opts.now().Sub(start).Microseconds())
	return out
}
