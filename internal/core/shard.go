package core

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"time"

	"aladdin/internal/constraint"
	"aladdin/internal/parallel"
	"aladdin/internal/resource"
	"aladdin/internal/sched"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// noShard marks a container as placed on no shard.
const noShard int32 = -1

// coreShard is one slice of a sharded scheduler: a full single-core
// Session over a view (topology.Restrict) of the sub-clusters it owns
// in the parent cluster.  mu guards sess and, through it, the view's
// machines — every call into the session goes through it, so the
// single-threaded Session contract holds per shard while different
// shards run concurrently.
type coreShard struct {
	//aladdin:lock-level 20 per-shard session lock, taken under placeMu and before the wrapper mu
	mu   sync.Mutex
	sess *Session
}

// ShardedSession partitions the scheduler core along sub-cluster
// boundaries: each shard owns a contiguous run of the cluster's
// sub-clusters — the machines themselves, through a view, not a copy —
// with its own flow network, tournament subtree, IL cache and scratch
// arena, so independent applications place concurrently with no shared
// mutable scheduler state.  Cross-shard anti-affinity needs
// no reconciliation protocol: blacklists are per-machine and the
// shards are machine-disjoint, so a constraint can only ever bind
// inside the shard whose machines it names.
//
// Lock order (see DESIGN.md §13): a shard's mu is taken before the
// wrapper's table lock mu, never after; placeMu serializes whole
// Place passes and is always outermost.  Place computes
// every shard's queue before the fan-out and merges results in shard
// index order, which is what makes the concurrent and sequential
// (Options.SequentialShards) modes byte-identical.
//
// Unlike Session, a ShardedSession is safe for concurrent use:
// Place/Remove/FailMachine/RecoverMachine may race from multiple
// goroutines (an HTTP server, a failure injector) and the session
// stays audit-clean.
type ShardedSession struct {
	opts   Options            //aladdin:lock-ok immutable after construction
	w      *workload.Workload //aladdin:lock-ok immutable after construction
	parent *topology.Cluster  //aladdin:lock-ok immutable after construction
	name   string             //aladdin:lock-ok immutable after construction

	// Each shard is guarded by its own mu; the slice itself is
	// immutable after construction.
	//
	//aladdin:lock-ok immutable slice; each shard guarded by its own mu
	//aladdin:domain shard -> _ shard index → shard
	shards []*coreShard

	// Immutable routing tables, built at construction.  The //aladdin:domain
	// directives declare each table's id spaces: "machine" is a machine id
	// (the parent cluster's and every shard view's alike), "shard" a shard
	// index, "app" an app index in the workload universe, and "ord" a
	// container ordinal.

	//aladdin:lock-ok immutable after construction
	//aladdin:domain machine -> shard owning shard of each machine id
	ownerOf []int32

	//aladdin:lock-ok immutable after construction
	//aladdin:domain app -> shard app index → home shard
	homeOf []int32

	//aladdin:lock-ok immutable after construction
	//aladdin:domain app -> _ app index → replicas fan out round-robin across shards
	spread []bool

	//aladdin:lock-ok immutable after construction
	//aladdin:domain ord -> shard container ordinal → first-try shard (homeOf/spread flattened)
	routeOf []int32

	// placeMu serializes Place: batches are admitted, fanned out and
	// merged one at a time, like the one scheduler manager per cluster
	// the paper assumes — sharding parallelises the inside of a batch,
	// not batches against each other.  Consolidation deliberately does
	// NOT take it: ConsolidateN drains in bounded per-shard chunks so
	// placements interleave with the sweep (see DESIGN.md §15).
	//
	//aladdin:lock-level 10 outermost: whole-batch serialization, taken before any shard mu
	placeMu sync.Mutex

	// mu guards the wrapper's global view: the submission ledger (with
	// its batch-membership marks) and the shard each container is placed
	// on.  The wrapper tracks strandedness itself — shard-local marks
	// cannot drive retries, because a stranded container's feasible new
	// home may live on another shard.
	//
	//aladdin:lock-level 30 innermost: table updates only, taken after shard mus are released or inside merge
	mu  sync.Mutex
	led ledger

	//aladdin:domain ord -> shard container ordinal → shard it is placed on (noShard if none)
	shardOf []int32
}

// NewSharded builds a sharded session over a workload universe and an
// empty cluster.  opts.Shards picks the shard count, clamped to
// [1, number of sub-clusters]; sub-cluster si goes to shard si·K/S,
// so shards own contiguous, near-equal runs of sub-clusters and each
// shard's machines keep the parent's traversal order.  Each shard
// schedules on cluster.Restrict(its sub-clusters), so every allocation
// and failure lands on the cluster's own machines and machine ids mean
// the same thing at every level.
func NewSharded(opts Options, w *workload.Workload, cluster *topology.Cluster) (*ShardedSession, error) {
	subs := cluster.SubClusters()
	if len(subs) == 0 {
		return nil, fmt.Errorf("core: sharded: cluster has no sub-clusters")
	}
	if n := cluster.UsedMachines(); n > 0 {
		return nil, fmt.Errorf("core: sharded: %d machines already host containers; sharding requires an empty cluster", n)
	}
	k := min(max(opts.Shards, 1), len(subs))

	s := &ShardedSession{
		opts:    opts,
		w:       w,
		parent:  cluster,
		name:    fmt.Sprintf("%s+S%d", opts.Name(), k),
		ownerOf: make([]int32, cluster.Size()),
		led:     newLedger(w),
		shardOf: make([]int32, w.NumContainers()),
	}
	for i := range s.shardOf {
		s.shardOf[i] = noShard
	}

	owned := make([][]string, k)
	for si, subName := range subs {
		shard := si * k / len(subs)
		owned[shard] = append(owned[shard], subName)
	}
	views := make([]*topology.Cluster, k)
	capCPU := make([]int64, k)
	for i := range views {
		views[i] = cluster.Restrict(owned[i])
		for _, m := range views[i].Machines() {
			s.ownerOf[m.ID] = int32(i)
		}
		capCPU[i] = views[i].TotalCapacity().Dim(resource.CPU)
	}

	// Capacity-proportional home assignment: each application is
	// homed, in application index order, on the shard whose projected
	// load fraction (assigned CPU demand over shard CPU capacity) is
	// lowest.  Round-robin by count would overload the smaller shards
	// whenever the sub-cluster count does not divide evenly across k —
	// an overloaded shard pays the full rescue pipeline (migration,
	// defragmentation, preemption scans) per stranded container before
	// spilling, which dominates the run.  Cross-multiplied int64
	// comparison keeps the choice exact; ties break to the lowest
	// shard index, so the assignment is deterministic.
	apps := w.Apps()
	s.homeOf = make([]int32, len(apps))
	s.spread = make([]bool, len(apps))
	loads := make([]int64, k)

	// Dense self-anti-affine applications are spread, not homed: when
	// an app's replica count is within a factor of four of the smallest
	// shard's machine count, homing it would blacklist most of that
	// shard's machines, and every later placement search degenerates
	// into a scan over blacklisted candidates (then strands and repeats
	// the scan on the spill shards).  Fanning such replicas out
	// round-robin by container ordinal keeps the blacklist density low
	// on every shard, which is exactly what the whole-cluster scheduler
	// enjoys for free.  The routing stays deterministic in both
	// concurrency modes: it depends only on immutable workload
	// ordinals.
	minMachines := cluster.Size()
	for _, v := range views {
		minMachines = min(minMachines, len(v.Machines()))
	}
	for i, a := range apps {
		demand := a.Demand.Dim(resource.CPU) * int64(a.Replicas)
		if k > 1 && a.AntiAffinitySelf && int64(a.Replicas)*4 >= int64(minMachines) {
			s.spread[i] = true
			share := demand / int64(k)
			for j := range loads {
				loads[j] += share
			}
			continue
		}
		best := 0
		for j := 1; j < k; j++ {
			if (loads[j]+demand)*capCPU[best] < (loads[best]+demand)*capCPU[j] {
				best = j
			}
		}
		s.homeOf[i] = int32(best)
		loads[best] += demand
	}

	// Flatten the routing decision to one int32 per container ordinal:
	// admitBatch runs once per placed container, so it must not pay a
	// map probe (app index) per container.  Containers are app-major
	// in workload ordinal order, which is what makes the walk below
	// line up with the apps slice.
	s.routeOf = make([]int32, w.NumContainers())
	ord := 0
	for i, a := range apps {
		for r := 0; r < a.Replicas; r++ {
			if s.spread[i] {
				s.routeOf[ord] = int32(ord % k)
			} else {
				s.routeOf[ord] = s.homeOf[i]
			}
			ord++
		}
	}

	shardOpts := opts
	shardOpts.Shards = 0
	shardOpts.SequentialShards = false
	// The wrapper consumes shard results by ordinal (AssignedOrd), so
	// the shard sessions never need to build per-batch ID maps.
	shardOpts.LeanPlaceResult = true
	for _, v := range views {
		s.shards = append(s.shards, &coreShard{sess: NewSession(shardOpts, w, v)})
	}
	// Every shard session seeded the shared up/down gauges from its
	// own slice, each overwrite clobbering the last; re-baseline them
	// to cluster totals.
	if opts.Metrics != nil {
		newCoreMetrics(opts.Metrics, opts.MetricLabels).initGauges(cluster)
	}
	return s, nil
}

// Name returns the paper-style scheduler name with a shard suffix,
// e.g. "Aladdin(16)+IL+DL+S8".
func (s *ShardedSession) Name() string { return s.name }

// NumShards returns the effective shard count after clamping.
func (s *ShardedSession) NumShards() int { return len(s.shards) }

// workers returns the fan-out width for a Place pass: one goroutine
// per shard, capped at GOMAXPROCS — launching more shard goroutines
// than runnable cores would only interleave them, which distorts the
// per-shard critical-path timings without finishing any sooner.  A
// single in-order worker when the sequential oracle is forced.
func (s *ShardedSession) workers() int {
	if s.opts.SequentialShards {
		return 1
	}
	if n := runtime.GOMAXPROCS(0); n < len(s.shards) {
		return n
	}
	return len(s.shards)
}

// shardFor resolves a machine id to the shard that schedules on it.
// The routing table is immutable after construction, so no lock is
// needed.
//
//aladdin:domain machine -> _
func (s *ShardedSession) shardFor(id topology.MachineID) (*coreShard, error) {
	if int(id) < 0 || int(id) >= len(s.ownerOf) {
		return nil, fmt.Errorf("core: sharded: unknown machine %d", id)
	}
	return s.shards[s.ownerOf[id]], nil
}

// unplaced records a container as off every shard in the wrapper tables
// under s.mu: ledgerUndeployed for a departure or a stranded arrival,
// ledgerStranded for a failure-stranding, which stays eligible for the
// automatic retry sweeps (RecoverMachine, RetryStranded).
func (s *ShardedSession) unplaced(ord int, state uint8) {
	s.mu.Lock()
	s.led.set(ord, state)
	s.shardOf[ord] = noShard
	s.mu.Unlock()
}

// shardBatch carries one shard's Place outcome across the fan-out
// barrier: everything is copied out of the shard session's scratch
// while its lock is still held.  Batch containers are reported by
// ordinal in queue order — no ID-keyed maps cross the barrier, so
// the merge costs array reads, not hash probes.
type shardBatch struct {
	placed     []int32               // batch ordinals placed by this call, queue order
	asg        []topology.MachineID  // machine per placed entry
	stranded   []*workload.Container // batch containers left unplaced, queue order
	victims    []*workload.Container // re-queued earlier-batch victims this call stranded
	migrations int
	preempts   int
	work       int64
	elapsed    time.Duration // this shard's own placement + merge time
	err        error
}

// placeOnShard runs one queue through one shard under its lock and
// merges the outcome into the wrapper tables before the lock drops,
// so a concurrent FailMachine on the same shard always observes
// ledger and session in agreement.
func (s *ShardedSession) placeOnShard(k int, queue []*workload.Container) shardBatch {
	sh := s.shards[k]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t0 := s.opts.now()
	res, err := sh.sess.Place(queue)
	out := shardBatch{err: err}
	if res == nil {
		return out
	}
	out.migrations, out.preempts, out.work = res.Migrations, res.Preemptions, res.WorkUnits
	// Batch members were validated unplaced at admission, so a live
	// assignment now means this call placed them.  On a mid-batch
	// error the untried tail lands in stranded, matching the
	// "partial result plus error" contract of Session.Place.
	for _, c := range queue {
		if m := sh.sess.AssignedOrd(c.Ord); m != topology.Invalid {
			out.placed = append(out.placed, int32(c.Ord))
			out.asg = append(out.asg, m)
		} else {
			out.stranded = append(out.stranded, c)
		}
	}
	// The shard session's undeployed list holds batch members (already
	// collected above) plus displaced victims from earlier batches.
	// Both get their wrapper ledger entry below.
	s.mu.Lock()
	for _, ord := range out.placed {
		s.led.set(int(ord), ledgerPlaced)
		s.shardOf[ord] = int32(k)
	}
	s.mu.Unlock()
	for _, c := range sh.sess.undep {
		if !s.isInBatch(c.Ord) {
			out.victims = append(out.victims, c)
		}
		s.unplaced(c.Ord, ledgerUndeployed)
	}
	out.elapsed = s.opts.now().Sub(t0)
	return out
}

// Place schedules a batch across the shards: containers are routed to
// their application's home shard, all shard queues run concurrently
// (or in shard order under SequentialShards), and containers a full
// home shard strands get one serial spill pass over the other shards
// in index order.  The returned Result is freshly allocated — unlike
// Session.Place it has no scratch-invalidation window.  Result.Elapsed
// reports the batch's critical path (serial sections plus the slowest
// shard); Result.WallElapsed reports this host's wall-clock.
func (s *ShardedSession) Place(batch []*workload.Container) (*sched.Result, error) {
	res, _, err := s.place(batch)
	return res, err
}

// place is Place that also hands back the containers the result lists
// as undeployed, so the retry sweep need not resolve their IDs again.
func (s *ShardedSession) place(batch []*workload.Container) (*sched.Result, []*workload.Container, error) {
	start := s.opts.now()
	s.placeMu.Lock()
	defer s.placeMu.Unlock()

	// Admission is the same ledger check Session.Place runs; the
	// admitted batch then splits into per-shard queues by each
	// container's first-try shard (construction-time table, no lock).
	s.mu.Lock()
	admitted, err := s.led.admit(batch, make([]*workload.Container, 0, len(batch)))
	s.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	nBatch := len(admitted)
	queues := make([][]*workload.Container, len(s.shards))
	for _, c := range admitted {
		home := s.routeOf[c.Ord]
		queues[home] = append(queues[home], c)
	}

	slots := make([]shardBatch, len(s.shards))
	fanStart := s.opts.now()
	parallel.ForEach(len(s.shards), s.workers(), func(k int) {
		if len(queues[k]) == 0 {
			return
		}
		slots[k] = s.placeOnShard(k, queues[k])
	})
	fanWall := s.opts.now().Sub(fanStart)

	// Merge in shard index order: identical in concurrent and
	// sequential modes because each slot is fully determined by its
	// own shard's (deterministic) run.  Pending collects this batch's
	// strandings (shard order, queue order within a shard — the same
	// sequence the old per-queue rescan produced) followed by
	// re-queued victims; everything else is already placed, so the
	// pass below never revisits the happy-path containers.
	res := &sched.Result{Scheduler: s.name}
	if !s.opts.LeanPlaceResult {
		res.Assignment = make(constraint.Assignment, nBatch)
	}
	canon := s.w.Containers()
	var errs []error
	var pending []*workload.Container
	var slowest time.Duration
	for k := range slots {
		if slots[k].err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", k, slots[k].err))
		}
		if res.Assignment != nil {
			for i, ord := range slots[k].placed {
				res.Assignment[canon[ord].ID] = slots[k].asg[i]
			}
		}
		res.Migrations += slots[k].migrations
		res.Preemptions += slots[k].preempts
		res.WorkUnits += slots[k].work
		if slots[k].elapsed > slowest {
			slowest = slots[k].elapsed
		}
		pending = append(pending, slots[k].stranded...)
	}
	for k := range slots {
		pending = append(pending, slots[k].victims...)
	}

	// Spill pass: stranded containers retry the other shards in index
	// order — batch containers first (batch order), then re-queued
	// preemption victims from earlier batches (shard order).  Each
	// shard takes every remaining stranding as one queue, which
	// places the same containers as spilling them one at a time (a
	// shard session processes its queue serially, in order) but
	// amortises the per-call overhead and lets isomorphism limiting
	// short-circuit sibling spills.  Serial and deterministic in both
	// concurrency modes; errors abort further spills.
	if len(errs) == 0 {
		for k2 := 0; k2 < len(s.shards) && len(pending) > 0; k2++ {
			queue := pending[:0:0]
			for _, c := range pending {
				if s.routeOf[c.Ord] != int32(k2) {
					queue = append(queue, c)
				}
			}
			if len(queue) == 0 {
				continue
			}
			sb := s.placeOnShard(k2, queue)
			if sb.err != nil {
				errs = append(errs, fmt.Errorf("spill shard %d: %w", k2, sb.err))
				break
			}
			res.Migrations += sb.migrations
			res.Preemptions += sb.preempts
			res.WorkUnits += sb.work
			if len(sb.placed) == 0 {
				continue
			}
			landed := make(map[int]bool, len(sb.placed))
			for i, ord := range sb.placed {
				landed[int(ord)] = true
				if res.Assignment != nil && s.isInBatch(int(ord)) {
					res.Assignment[canon[ord].ID] = sb.asg[i]
				}
			}
			next := pending[:0]
			for _, c := range pending {
				if !landed[c.Ord] {
					next = append(next, c)
				}
			}
			pending = next
		}
	}

	// Final undeployed view: whatever survived the spill pass, still
	// in batch order then victim order.  Victims were not part of the
	// admitted batch, so each one stranded grows the total.
	res.Total = nBatch
	res.Undeployed = containerIDs(nil, pending)
	for _, c := range pending {
		if !s.isInBatch(c.Ord) {
			res.Total++
		}
	}
	// Elapsed is the batch's critical path: the serial sections
	// (admission, merge, spill, bookkeeping) at wall-clock plus the
	// slowest shard of the fan-out — the placements inside the fan-out
	// are independent by construction, so the critical path is what a
	// host with one core per shard spends.  WallElapsed keeps this
	// host's actual wall-clock; the two coincide when GOMAXPROCS
	// covers the shard count.
	res.WallElapsed = s.opts.now().Sub(start)
	res.Elapsed = res.WallElapsed - fanWall + slowest
	return res, pending, errors.Join(errs...)
}

// isPlaced reads the wrapper ledger under s.mu.
func (s *ShardedSession) isPlaced(ord int) bool {
	s.mu.Lock()
	p := s.led.state[ord] == ledgerPlaced
	s.mu.Unlock()
	return p
}

// isInBatch reports whether the container was admitted by the Place
// pass in flight (placeMu makes that one batch), under s.mu.
func (s *ShardedSession) isInBatch(ord int) bool {
	s.mu.Lock()
	in := s.led.member(ord)
	s.mu.Unlock()
	return in
}

// Placed reports whether the container is currently deployed on any
// shard.
func (s *ShardedSession) Placed(containerID string) bool {
	c := s.w.Container(containerID)
	return c != nil && s.isPlaced(c.Ord)
}

// Assignment merges the shards' container→machine maps into one
// freshly-allocated map.
func (s *ShardedSession) Assignment() constraint.Assignment {
	out := make(constraint.Assignment)
	for _, sh := range s.shards {
		sh.mu.Lock()
		maps.Copy(out, sh.sess.Assignment())
		sh.mu.Unlock()
	}
	return out
}

// Remove departs a container from whichever shard hosts it.
func (s *ShardedSession) Remove(containerID string) error {
	c := s.w.Container(containerID)
	if c == nil {
		return fmt.Errorf("core: session: unknown container %s", containerID)
	}
	for {
		s.mu.Lock()
		owner := s.shardOf[c.Ord]
		s.mu.Unlock()
		if owner == noShard {
			return fmt.Errorf("core: session: container %s not placed", containerID)
		}
		sh := s.shards[owner]
		sh.mu.Lock()
		s.mu.Lock()
		moved := s.shardOf[c.Ord] != owner
		s.mu.Unlock()
		if moved {
			// Lost a race with a failure eviction or re-placement;
			// re-resolve the owner.
			sh.mu.Unlock()
			continue
		}
		err := sh.sess.Remove(containerID)
		if err == nil {
			s.unplaced(c.Ord, ledgerUndeployed)
		}
		sh.mu.Unlock()
		return err
	}
}

// FailMachine routes a machine loss to its owning shard: the eviction
// and the priority-ordered re-placement both stay inside that shard's
// domain (stranded containers may later spill through Place).
func (s *ShardedSession) FailMachine(id topology.MachineID) (*FailureResult, error) {
	sh, lerr := s.shardFor(id)
	if lerr != nil {
		return nil, lerr
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	res, err := sh.sess.FailMachine(id)
	if res != nil {
		for _, c := range sh.sess.undep {
			s.unplaced(c.Ord, ledgerStranded)
		}
	}
	return res, err
}

// RecoverMachine returns a failed machine to its shard's service,
// then runs the wrapper's stranded-container retry sweep — not the
// shard's own: a stranded container's feasible new home may live on
// another shard.  Every failure-stranded container re-enters the normal
// Place pipeline one at a time (home shard first, spilling across the
// others), so the recovered capacity — and any other capacity that
// freed up since the failure — is put back to work.  The sweep is
// unbudgeted, like the single-session recovery path.
func (s *ShardedSession) RecoverMachine(id topology.MachineID) (*RecoverResult, error) {
	start := s.opts.now()
	sh, err := s.shardFor(id)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	err = sh.sess.markUp(id)
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return recovered(s.opts, start, id, s.RetryStranded)
}

// RetryStranded re-submits failure-stranded containers through the
// wrapper's Place pipeline in priority order, one container per call
// so shard locks release between attempts.  budget caps rescue moves
// (migrations plus preemptions) per sweep; it is enforced per shard
// session, so a single attempt that spills across shards may overshoot
// by the moves the extra shards spend (0 = unlimited).  Containers
// that still fit nowhere stay stranded for the next sweep.
func (s *ShardedSession) RetryStranded(budget int) (*RetryResult, error) {
	res := &RetryResult{}
	s.mu.Lock()
	queue := s.led.stranded()
	s.mu.Unlock()
	byPriority(queue)
	remaining := budget
	for _, c := range queue {
		if budget > 0 && remaining <= 0 {
			break
		}
		if s.isPlaced(c.Ord) {
			continue // lost a race with a concurrent placement
		}
		res.Retried++
		if budget > 0 {
			s.setShardMoveBudgets(remaining)
		}
		pr, undep, err := s.place([]*workload.Container{c})
		if budget > 0 {
			s.setShardMoveBudgets(0)
		}
		if err != nil {
			if errors.Is(err, ErrStateCorruption) {
				return res, err
			}
			// A benign admission race (e.g. the container landed via a
			// concurrent Place between our check and the call): skip it.
			continue
		}
		res.Migrations += pr.Migrations
		res.Preemptions += pr.Preemptions
		if budget > 0 {
			remaining -= pr.Migrations + pr.Preemptions
		}
		placed := true
		for _, u := range undep {
			if u == c {
				placed = false
			}
			// Whatever the attempt left undeployed — the retried
			// container or a collateral victim — stays stranded.
			if !s.isPlaced(u.Ord) {
				s.unplaced(u.Ord, ledgerStranded)
			}
		}
		if placed {
			res.Replaced = append(res.Replaced, c.ID)
		}
	}
	return res, nil
}

// setShardMoveBudgets installs (or clears, cap <= 0) a rescue-move
// budget on every shard session.  While installed, concurrent Place
// batches share the cap — an acceptable, transient narrowing during a
// budgeted retry attempt.
func (s *ShardedSession) setShardMoveBudgets(cap int) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.sess.r.setMoveBudget(cap)
		sh.mu.Unlock()
	}
}

// consolidateChunk is how many container moves a sharded consolidation
// performs per shard-lock acquisition: large enough to amortise the
// drain pass's candidate scan, small enough that concurrent Place and
// failure traffic never waits behind a whole-shard drain.
const consolidateChunk = 64

// Consolidate drains every shard in index order and returns the total
// migrations performed.  Consolidation never crosses a shard
// boundary: moves stay within each shard's machines, so the
// container → shard table is unaffected.
func (s *ShardedSession) Consolidate() (int, error) {
	r, err := s.ConsolidateN(0)
	return r.Moves, err
}

// ConsolidateN drains the shards incrementally under a move budget (0
// = unlimited).  Unlike Place it never takes placeMu, and each shard's
// lock is held only for one bounded chunk of moves at a time, so
// concurrent Place/Remove/Fail/Recover traffic interleaves with the
// sweep instead of stalling behind it.  Result.More reports whether
// drain work (possibly infeasible — the signal is conservative)
// remained when the budget ran out; a later call resumes it.
func (s *ShardedSession) ConsolidateN(budget int) (ConsolidateResult, error) {
	var out ConsolidateResult
	remaining := budget
	for _, sh := range s.shards {
		chunk := consolidateChunk
		for {
			if budget > 0 && remaining <= 0 {
				out.More = true
				return out, nil
			}
			n := chunk
			if budget > 0 && n > remaining {
				n = remaining
			}
			sh.mu.Lock()
			r, err := sh.sess.ConsolidateN(n)
			sh.mu.Unlock()
			out.Moves += r.Moves
			if budget > 0 {
				remaining -= r.Moves
			}
			if err != nil {
				return out, err
			}
			if !r.More {
				break // shard fully consolidated
			}
			if r.Moves == 0 {
				// Every remaining drainable machine on this shard holds
				// more residents than the chunk allows.  Grow the chunk
				// until one fits — unless the sweep budget itself is the
				// binding cap, in which case this shard must wait for a
				// future sweep.
				if budget > 0 && n >= remaining {
					out.More = true
					break
				}
				chunk *= 2
			}
		}
	}
	return out, nil
}

// PackingStats aggregates placement quality across the shards, each
// slice of the cluster read under its shard's lock.
func (s *ShardedSession) PackingStats() PackingStats {
	var a packingAccum
	for _, sh := range s.shards {
		sh.mu.Lock()
		a.add(sh.sess.cluster)
		sh.mu.Unlock()
	}
	s.mu.Lock()
	n := s.led.strandedN
	s.mu.Unlock()
	return a.finish(n)
}

// StrandedIDs lists the failure-stranded containers in workload
// ordinal order, from the wrapper ledger.
func (s *ShardedSession) StrandedIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return containerIDs(nil, s.led.stranded())
}

// Forget clears a container's failure-stranded mark in the wrapper
// ledger; see Session.Forget.
func (s *ShardedSession) Forget(containerID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.forget(containerID)
}

// Audit re-checks the live placement, merged across the shards, for
// constraint violations; a healthy sharded session returns an empty
// slice.
func (s *ShardedSession) Audit() []constraint.Violation {
	return constraint.AuditAntiAffinity(s.w, s.Assignment())
}

// FlowConservation verifies Equation 2 on every shard's network.
func (s *ShardedSession) FlowConservation() error {
	for k, sh := range s.shards {
		sh.mu.Lock()
		err := sh.sess.FlowConservation()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return nil
}

// AuditInvariants runs the full runtime Auditor on every shard and
// then cross-checks the wrapper's own tables: each container the
// ledger calls placed must be live on exactly the shard the ownership
// table names, and on no other.  Results carry a "shard k:" prefix so
// a violation localises immediately.  Like the per-shard audits it
// wraps, this is meant to run quiesced (between operations, or after
// concurrent load has drained).
func (s *ShardedSession) AuditInvariants() []AuditViolation {
	var out []AuditViolation
	for k, sh := range s.shards {
		sh.mu.Lock()
		vs := sh.sess.AuditInvariants()
		sh.mu.Unlock()
		for _, v := range vs {
			out = append(out, AuditViolation{Kind: v.Kind, Detail: fmt.Sprintf("shard %d: %s", k, v.Detail)})
		}
	}
	containers := s.w.Containers()
	s.mu.Lock()
	ledger := append([]uint8(nil), s.led.state...)
	shardOf := append([]int32(nil), s.shardOf...)
	s.mu.Unlock()
	for k, sh := range s.shards {
		sh.mu.Lock()
		for _, c := range containers {
			got := sh.sess.Placed(c.ID)
			want := ledger[c.Ord] == ledgerPlaced && shardOf[c.Ord] == int32(k)
			if got != want {
				out = append(out, AuditViolation{
					Kind: AuditAssignmentDrift,
					Detail: fmt.Sprintf("shard %d: container %s: shard session placed=%v, wrapper ledger=%d ownership=%d",
						k, c.ID, got, ledger[c.Ord], shardOf[c.Ord]),
				})
			}
		}
		sh.mu.Unlock()
	}
	return out
}
