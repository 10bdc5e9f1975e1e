package core

import (
	"fmt"
	"sort"
	"time"

	"aladdin/internal/constraint"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// SessionState is the portable state of a live Session: everything a
// warm restart needs beyond the cluster topology and the workload
// universe (which are checkpointed alongside — the snapshot stores
// the topology, the workload travels by reference as its trace).
//
// The scheduler's derived structures — the flow network, the
// tournament-tree index, rack/sub-cluster aggregates and blacklists —
// are deliberately absent: RestoreSession rebuilds them by replaying
// the assignment through the same place path live scheduling uses, so
// they can never disagree with the captured ground truth.  The IL
// cache's live entries travel as ILFailed so a restored session's
// first batch pays no re-miss storm; the sibling search hint restores
// cold (a pure memo whose absence changes explored-vertex counts but
// never placement outcomes).
type SessionState struct {
	// Assignment maps every currently-placed container to its machine.
	Assignment constraint.Assignment
	// Undeployed lists containers that were submitted but are not
	// currently placed — arrival rejections, preemption strandings and
	// failure evictions awaiting re-submission.  Sorted.
	Undeployed []string
	// Stranded lists the subset of Undeployed that was knocked out by
	// machine failures and is eligible for automatic retry (on
	// RecoverMachine or a rebalancer sweep).  Omitting it restores
	// every undeployed container as requiring explicit re-submission.
	// Sorted.
	Stranded []string
	// Requeues records the consumed preemption re-queue budget for
	// containers that have been evicted at least once; omitting it
	// would let a restored session preempt a victim past its budget.
	Requeues map[string]int
	// ILFailed lists applications currently proven unplaceable by the
	// isomorphism-limiting cache (entries live at the capture's
	// release generation).  Valid to re-apply on restore because the
	// restored cluster state is exactly the captured one: no capacity
	// has been released since the proofs were recorded.  Sorted.
	ILFailed []string
}

// Cluster returns the session's live cluster topology.
func (s *Session) Cluster() *topology.Cluster { return s.cluster }

// Workload returns the session's workload universe.
func (s *Session) Workload() *workload.Workload { return s.w }

// Options returns the options the session was built with.
func (s *Session) Options() Options { return s.opts }

// ExportState captures the session's portable state.  The returned
// value shares nothing with the session; it stays valid across
// subsequent scheduling.
func (s *Session) ExportState() *SessionState {
	st := &SessionState{
		Assignment: make(constraint.Assignment),
		Requeues:   make(map[string]int),
	}
	for id, m := range s.r.assignmentMap() {
		st.Assignment[id] = m
	}
	for _, c := range s.w.Containers() {
		// Stranded is an undeployed sub-state: such containers appear
		// in Undeployed (the complete not-placed ledger) and again in
		// Stranded so a restored session keeps auto-retrying them.
		switch s.led.state[c.Ord] {
		case ledgerUndeployed:
			st.Undeployed = append(st.Undeployed, c.ID)
		case ledgerStranded:
			st.Undeployed = append(st.Undeployed, c.ID)
			st.Stranded = append(st.Stranded, c.ID)
		}
		if n := s.r.requeues[c.Ord]; n > 0 {
			st.Requeues[c.ID] = n
		}
	}
	sort.Strings(st.Undeployed)
	sort.Strings(st.Stranded)
	if s.opts.IsomorphismLimiting {
		for ao, a := range s.w.Apps() {
			if s.r.search.il.valid(ao) {
				st.ILFailed = append(st.ILFailed, a.ID)
			}
		}
		sort.Strings(st.ILFailed)
	}
	return st
}

// RestoreSession rebuilds a live Session from a checkpointed state:
// the cluster must be a fresh (allocation-free) topology — typically
// topology.FromSpecs over the snapshot's machine specs, with failed
// machines already marked down — and the workload must be the same
// universe the state was captured from.  Every placement is replayed
// through the scheduler's single place path, so the flow network,
// blacklists, tournament-tree index and aggregates are rebuilt
// exactly as live scheduling would have left them; a restored session
// and a never-restarted one given the same subsequent batches produce
// identical assignments.
//
// Restore is strict: unknown containers, machines out of range or
// down, double placements, and containers listed both placed and
// undeployed all fail with an error rather than restoring a silently
// diverged state.
func RestoreSession(opts Options, w *workload.Workload, cluster *topology.Cluster, st *SessionState) (*Session, error) {
	if st == nil {
		return nil, fmt.Errorf("core: restore: nil state")
	}
	var start time.Time
	if opts.Metrics != nil {
		start = opts.now()
	}
	s := NewSession(opts, w, cluster)
	r := s.r

	// Deterministic replay in workload (ordinal) order.  The final
	// state is order-independent — flows, blacklist sets and aggregates
	// all commute — but a fixed order keeps restores reproducible for
	// debugging.
	for _, c := range w.Containers() {
		m, ok := st.Assignment[c.ID]
		if !ok {
			continue
		}
		machine := cluster.Machine(m)
		if machine == nil {
			return nil, fmt.Errorf("core: restore: container %s assigned to unknown machine %d", c.ID, m)
		}
		if !machine.Up() {
			return nil, fmt.Errorf("core: restore: container %s assigned to down machine %s", c.ID, machine.Name)
		}
		if err := r.place(c, m); err != nil {
			return nil, fmt.Errorf("core: restore: %w", err)
		}
		s.led.state[c.Ord] = ledgerPlaced
	}
	// Pure validation sweep: which offending container the error names
	// may vary with map order, but whether an error is returned cannot.
	//aladdin:nondeterministic-ok error-path-only selection
	for id := range st.Assignment {
		if w.Container(id) == nil {
			return nil, fmt.Errorf("core: restore: container %s not in workload universe", id)
		}
	}
	for _, id := range st.Undeployed {
		c := w.Container(id)
		if c == nil {
			return nil, fmt.Errorf("core: restore: undeployed container %s not in workload universe", id)
		}
		if s.led.state[c.Ord] == ledgerPlaced {
			return nil, fmt.Errorf("core: restore: container %s both placed and undeployed", id)
		}
		s.led.state[c.Ord] = ledgerUndeployed
	}
	for _, id := range st.Stranded {
		c := w.Container(id)
		if c == nil {
			return nil, fmt.Errorf("core: restore: stranded container %s not in workload universe", id)
		}
		if s.led.state[c.Ord] != ledgerUndeployed {
			return nil, fmt.Errorf("core: restore: stranded container %s not in the undeployed ledger", id)
		}
		s.led.set(c.Ord, ledgerStranded)
	}
	// Distinct ordinals: the writes commute, and which entry an error
	// names may vary with map order but not whether one is returned.
	//aladdin:nondeterministic-ok commutative writes, error-path-only selection
	for id, n := range st.Requeues {
		c := w.Container(id)
		if c == nil {
			return nil, fmt.Errorf("core: restore: requeue ledger references unknown container %s", id)
		}
		if n < 0 {
			return nil, fmt.Errorf("core: restore: container %s has negative requeue count %d", id, n)
		}
		r.requeues[c.Ord] = n
	}
	// Warm the IL cache last: the replay above never released capacity
	// (place only), so the captured unplaceability proofs still hold at
	// the fresh session's release generation.  Skipped when the restored
	// configuration runs without IL — the memo would never be read.
	if opts.IsomorphismLimiting {
		for _, appID := range st.ILFailed {
			ref := r.blacklist.Ref(appID)
			if ref == constraint.NoApp {
				return nil, fmt.Errorf("core: restore: IL cache references unknown app %s", appID)
			}
			r.search.il.note(ref)
		}
	}
	if r.met.on {
		r.met.restoreLat.Observe(opts.now().Sub(start).Microseconds())
		r.met.restores.Inc()
	}
	return s, nil
}
