package core

import (
	"fmt"
	"maps"
	"sort"

	"aladdin/internal/constraint"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// SessionState is the portable state of a live session of either
// shape: everything a warm restart needs beyond the cluster topology
// and the workload universe (which are checkpointed alongside — the
// snapshot stores the topology, the workload travels by reference as
// its trace).  It is written in the cluster's one machine-ID space and
// says nothing of how the session was sharded, so a state exported by
// a ShardedSession restores into a Session and back.
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

// NumShards returns 0: a Session is the unsharded core, the shape
// Options.Shards ≤ 1 asks for.  A caller holding either session shape
// reads how the cluster is split through this and
// ShardedSession.NumShards.
func (s *Session) NumShards() int { return 0 }

// ExportState captures the session's portable state.  The returned
// value shares nothing with the session; it stays valid across
// subsequent scheduling.
func (s *Session) ExportState() *SessionState {
	st := &SessionState{
		Assignment: maps.Clone(s.r.assignmentMap()),
		Requeues:   make(map[string]int),
	}
	st.Undeployed, st.Stranded = s.led.export()
	for _, c := range s.w.Containers() {
		if n := s.r.requeues[c.Ord]; n > 0 {
			st.Requeues[c.ID] = n
		}
	}
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
	start := opts.now()
	s := NewSession(opts, w, cluster)
	if err := s.led.restore(st); err != nil {
		return nil, err
	}
	if err := s.replay(st, func(*workload.Container) bool { return true }); err != nil {
		return nil, err
	}
	s.r.met.restored(opts, start)
	return s, nil
}

// replay loads into a freshly built session the part of a captured
// state that is this session's to hold: the placements, through the
// scheduler's place path, and requeue budgets of the containers holds
// selects — all of them for a Session restored whole, a shard's own
// for a shard — and every IL proof.
func (s *Session) replay(st *SessionState, holds func(*workload.Container) bool) error {
	r := s.r
	// Deterministic replay in workload (ordinal) order.  The final
	// state is order-independent — flows, blacklist sets and aggregates
	// all commute — but a fixed order keeps restores reproducible for
	// debugging.
	for _, c := range s.w.Containers() {
		m, ok := st.Assignment[c.ID]
		if !ok || !holds(c) {
			continue
		}
		machine := s.cluster.Machine(m)
		if machine == nil {
			return fmt.Errorf("core: restore: container %s assigned to unknown machine %d", c.ID, m)
		}
		if !machine.Up() {
			return fmt.Errorf("core: restore: container %s assigned to down machine %s", c.ID, machine.Name)
		}
		if err := r.place(c, m); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		// What a shard's ledger must know to refuse a second placement;
		// a whole Session's has it from ledger.restore already.
		s.led.state[c.Ord] = ledgerPlaced
	}
	// Distinct ordinals: the writes commute, and which entry an error
	// names may vary with map order but not whether one is returned.
	//aladdin:nondeterministic-ok commutative writes, error-path-only selection
	for id, n := range st.Requeues {
		c := s.w.Container(id)
		if c == nil {
			return fmt.Errorf("core: restore: requeue ledger references unknown container %s", id)
		}
		if n < 0 {
			return fmt.Errorf("core: restore: container %s has negative requeue count %d", id, n)
		}
		if holds(c) {
			r.requeues[c.Ord] = n
		}
	}
	// Warm the IL cache last: the replay above never released capacity
	// (place only), so the captured unplaceability proofs still hold at
	// the fresh session's release generation.  Skipped when the restored
	// configuration runs without IL — the memo would never be read.
	if s.opts.IsomorphismLimiting {
		for _, appID := range st.ILFailed {
			ref := r.blacklist.Ref(appID)
			if ref == constraint.NoApp {
				return fmt.Errorf("core: restore: IL cache references unknown app %s", appID)
			}
			r.search.il.note(ref)
		}
	}
	return nil
}

// Cluster returns the cluster the session was built over; the shards
// schedule on views of its machines, so it carries every live
// allocation and failure.
func (s *ShardedSession) Cluster() *topology.Cluster { return s.parent }

// Options returns the options the session was built with (Shards as
// requested; NumShards reports the count after clamping).
func (s *ShardedSession) Options() Options { return s.opts }

// ExportState captures the sharded session's portable state in the one
// shape-agnostic SessionState: the assignment is the union of the
// shards' (they are machine-disjoint), the undeployed and stranded
// ledgers are the wrapper's (the shards' own are never read), a
// container's requeue count is summed over the shards that evicted it,
// and an application counts as proven unplaceable only when every
// shard has proven it — any other shard might still take it.  Like
// AuditInvariants it is meant to run quiesced: each shard is read
// under its own lock, but not all under one.
func (s *ShardedSession) ExportState() *SessionState {
	st := &SessionState{
		Assignment: s.Assignment(),
		Requeues:   make(map[string]int),
	}
	s.mu.Lock()
	st.Undeployed, st.Stranded = s.led.export()
	s.mu.Unlock()
	apps, containers := s.w.Apps(), s.w.Containers()
	proofs := make([]int, len(apps))
	for _, sh := range s.shards {
		sh.mu.Lock()
		for ord, n := range sh.sess.r.requeues {
			if n > 0 {
				st.Requeues[containers[ord].ID] += n
			}
		}
		for ao := range apps {
			if sh.sess.r.search.il.valid(ao) {
				proofs[ao]++
			}
		}
		sh.mu.Unlock()
	}
	// Without IL nothing is ever noted, so nothing is listed, as for a
	// Session.
	for ao, a := range apps {
		if proofs[ao] == len(s.shards) {
			st.ILFailed = append(st.ILFailed, a.ID)
		}
	}
	sort.Strings(st.ILFailed)
	return st
}

// RestoreSharded is RestoreSession for the sharded core: a sharded
// session is built over the fresh cluster, the wrapper's ledger is
// validated and rebuilt by the same rules, and each shard replays —
// through the same Session replay, so its network, index and
// blacklists are rebuilt as live scheduling would have left them — the
// placements on the machines it owns.  The routing tables are a
// function of workload and cluster and are rebuilt, not restored.  An
// unplaced container's requeue count goes to its first-try shard: the
// one count cannot be split back over the shards that built it up, and
// charging it where the container can next be a victim never lets it be
// preempted past its budget.  Every shard is given every IL proof;
// ExportState kept only those all shards shared.
func RestoreSharded(opts Options, w *workload.Workload, cluster *topology.Cluster, st *SessionState) (*ShardedSession, error) {
	start := opts.now()
	s, err := NewSharded(opts, w, cluster)
	if err != nil {
		return nil, err
	}
	if err := s.led.restore(st); err != nil {
		return nil, err
	}
	// Distinct ordinals (the ledger restore vouched for the IDs): the
	// writes commute, and which entry an error names may vary with map
	// order but not whether one is returned.
	//aladdin:nondeterministic-ok commutative writes, error-path-only selection
	for id, m := range st.Assignment {
		if _, err := s.shardFor(m); err != nil {
			return nil, fmt.Errorf("core: restore: container %s: %w", id, err)
		}
		s.shardOf[w.Container(id).Ord] = s.ownerOf[m]
	}
	for k, sh := range s.shards {
		k := int32(k)
		holds := func(c *workload.Container) bool {
			if placedOn := s.shardOf[c.Ord]; placedOn != noShard {
				return placedOn == k
			}
			return s.routeOf[c.Ord] == k
		}
		if err := sh.sess.replay(st, holds); err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
	}
	newCoreMetrics(opts.Metrics, opts.MetricLabels).restored(opts, start)
	return s, nil
}
