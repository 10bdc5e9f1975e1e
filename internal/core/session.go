package core

import (
	"fmt"
	"time"

	"aladdin/internal/constraint"
	"aladdin/internal/obs"
	"aladdin/internal/sched"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// Session is the online face of Aladdin (§VI: "Aladdin is an online
// scheduling system"): it keeps the flow network, blacklists and
// aggregates alive across scheduling rounds so LLA batches can arrive
// and depart over time without rebuilding state.  A Session is not
// safe for concurrent use; the production deployment runs one
// scheduler manager (SM) per cluster (§III.A).
//
// All per-batch working state (queue, undeployed list, result and its
// assignment map, batch-membership marks) lives in reusable scratch
// buffers on the session: once warm, a steady-state Place call that
// needs no migration or preemption performs zero heap allocations
// (enforced by TestSessionPlaceZeroAlloc and the allocguard CI gate).
type Session struct {
	opts    Options
	w       *workload.Workload
	cluster *topology.Cluster
	r       *run
	name    string

	// led is the submission ledger; ExportState derives the undeployed
	// set from it.
	led ledger
	// steps is the rescue step set Options selects for every pipeline
	// pass of this session.
	steps steps

	// Reusable per-batch scratch: the queue (batch plus requeued
	// preemption victims), the containers the last pipeline pass (Place
	// or FailMachine) left undeployed — the sharded wrapper and Schedule
	// read them here instead of re-resolving the result's IDs — the ID
	// rendering of that list, and the returned Result with its batch
	// assignment view.  The Result a Place call returns (and everything
	// it references) is valid only until the next Place call on the same
	// session.
	queue    []*workload.Container
	undep    []*workload.Container
	undepBuf []string
	res      sched.Result
	resAsg   constraint.Assignment
}

// NewSession builds a session over a workload universe (every app
// that may ever arrive; constraints need the full registry) and a
// cluster.  The cluster may already host residents unknown to the
// workload; they are treated as immovable.
func NewSession(opts Options, w *workload.Workload, cluster *topology.Cluster) *Session {
	s := &Session{
		opts:    opts,
		w:       w,
		cluster: cluster,
		name:    opts.Name(),
		led:     newLedger(w),
		steps:   opts.steps(),
	}
	s.r = newRun(opts, w, cluster)
	return s
}

// Assignment returns the container→machine map.  The map is shared
// until the next placement change; callers must not mutate it.
func (s *Session) Assignment() constraint.Assignment { return s.r.assignmentMap() }

// Placed reports whether the container is currently deployed, in O(1).
func (s *Session) Placed(containerID string) bool {
	c := s.w.Container(containerID)
	return c != nil && s.r.asg[c.Ord] != topology.Invalid
}

// AssignedOrd returns the machine hosting the container with the
// given workload ordinal, or topology.Invalid when it is not placed.
// It is the allocation-free counterpart of Assignment for wrappers
// (the sharded session) that track containers by ordinal and cannot
// afford an ID-keyed map probe per container.
func (s *Session) AssignedOrd(ord int) topology.MachineID {
	if ord < 0 || ord >= len(s.r.asg) {
		return topology.Invalid
	}
	return s.r.asg[ord]
}

// Place schedules a batch of containers against the current state.
// Each container must belong to the session's workload, appear at
// most once in the batch, and not be currently placed.  The result
// covers only this batch and — like every slice and map it references
// — is only valid until the next Place call on this session; callers
// that need to retain it across rounds must copy what they keep.
//
// On an internal placement error the containers placed before the
// error stay placed, and the partial Result is returned alongside the
// error so callers (the HTTP /place handler, the online simulator)
// can reconcile their view instead of silently diverging from the
// live cluster state.
//
//aladdin:hotpath steady-state placement is allocation-free (allocguard pins AllocsPerRun == 0)
func (s *Session) Place(batch []*workload.Container) (*sched.Result, error) {
	start := s.opts.now()
	r := s.r
	r.trc.Emit(obs.Event{Kind: obs.EvPlaceStart, Machine: -1, N: int64(len(batch))})
	migBefore, preBefore := r.migrations, r.preempts
	exploredBefore := r.search.explored

	// The whole batch is validated before anything is placed.
	queue, err := s.led.admit(batch, s.queue[:0])
	if err != nil {
		return nil, err
	}
	s.queue = queue
	nBatch := len(queue)

	s.undep, err = s.placeQueue(queue, s.undep[:0], s.steps)
	s.undepBuf = containerIDs(s.undepBuf[:0], s.undep)

	// Per-batch assignment view: only this batch's containers (victims
	// from earlier batches that were displaced and re-placed stay in
	// the session-wide Assignment view, not this one).  queue's first
	// nBatch entries are exactly the batch, whatever re-queueing
	// happened behind them.
	if !s.opts.LeanPlaceResult {
		if s.resAsg == nil {
			s.resAsg = make(constraint.Assignment, nBatch) //aladdin:hotalloc-ok one-time lazy init; steady state clears and reuses the map
		}
		clear(s.resAsg)
		for _, c := range queue[:nBatch] {
			if m := r.asg[c.Ord]; m != topology.Invalid {
				s.resAsg[c.ID] = m
			}
		}
	}

	dt := s.opts.now().Sub(start)
	s.res = sched.Result{
		Scheduler:   s.name,
		Assignment:  s.resAsg,
		Undeployed:  s.undepBuf,
		Migrations:  r.migrations - migBefore,
		Preemptions: r.preempts - preBefore,
		Elapsed:     dt,
		WallElapsed: dt,
		WorkUnits:   r.search.explored - exploredBefore,
	}
	r.met.placeBatch.Observe(s.res.Elapsed.Microseconds())
	// Total for this batch only, plus requeued victims from earlier
	// batches that this round stranded.
	s.res.Total = nBatch
	for _, c := range s.undep {
		if !s.led.member(c.Ord) {
			s.res.Total++
		}
	}
	return &s.res, err
}

// steps selects what a pipeline pass may do for a container beyond the
// direct search.  A session's own passes run the set its Options name;
// Schedule's post-consolidation retry runs stepMigrate alone.
type steps uint8

const (
	// stepIL consults and feeds the isomorphism-limiting cache
	// (Fig. 5a): a sibling already proved unplaceable and no capacity
	// has been released since — the search cannot succeed, skip it.
	stepIL steps = 1 << iota
	// stepMigrate relocates placed containers to admit the claimant:
	// anti-affinity migration (Fig. 3b), then defragmentation (Fig. 7).
	stepMigrate
	// stepPreempt evicts strictly-lower-priority containers (§III.B);
	// the victims re-enter the queue.
	stepPreempt
)

// steps derives the step set the options enable.
func (o Options) steps() steps {
	var do steps
	if o.IsomorphismLimiting {
		do |= stepIL
	}
	if o.Migration {
		do |= stepMigrate
	}
	if o.Preemption {
		do |= stepPreempt
	}
	return do
}

// strand records one container as undeployed in the session ledger
// and appends it — every undeployed outcome (arrival rejection, IL
// skip, error unwinding) funnels through here so a checkpoint captures
// it and a warm restart knows not to re-attempt it.
func (s *Session) strand(undep []*workload.Container, c *workload.Container) []*workload.Container {
	s.led.set(c.Ord, ledgerUndeployed)
	return append(undep, c)
}

// placeQueue drives the placement pipeline (Algorithm 1) — IL skip,
// direct search, migration, defragmentation, preemption — over a queue
// of containers, re-queueing preemption victims behind the current
// tail, and returns the containers left undeployed (appended to undep,
// which callers may pass with reused backing capacity).  It is the
// single path batch arrivals (Place, and through it Schedule), failure
// re-placement (FailMachine) and the stranded retry sweeps run
// through, so every invariant (anti-affinity, priority safety, index
// freshness) holds identically for all of them.
//
// On an internal placement error, processing stops: the remaining
// queue is reported undeployed and the error returned.  Containers
// placed before the error stay placed.
func (s *Session) placeQueue(queue, undep []*workload.Container, do steps) ([]*workload.Container, error) {
	r := s.r
	for i := 0; i < len(queue); i++ {
		c := queue[i]
		if do&stepIL != 0 {
			if r.search.il.skip(r.search.refOf(c)) {
				r.met.ilHits.Inc()
				undep = s.strand(undep, c)
				continue
			}
			r.met.ilMisses.Inc()
		}
		victims, ok, err := r.placeOne(c, do)
		if err != nil {
			for _, rest := range queue[i:] {
				undep = s.strand(undep, rest)
			}
			return undep, err
		}
		if !ok {
			// Budget-constrained failures prove nothing about the
			// cluster: recording them would poison later unconstrained
			// searches.
			if do&stepIL != 0 && r.moveCap == 0 {
				r.search.il.note(r.search.refOf(c))
			}
			undep = s.strand(undep, c)
			continue
		}
		s.led.set(c.Ord, ledgerPlaced)
		// Preemption victims (possibly from an earlier batch) re-enter
		// the queue after the current tail; their strictly lower
		// priority bounds the recursion.
		for _, v := range victims {
			s.led.set(v.Ord, ledgerUndeployed)
			queue = append(queue, v)
		}
	}
	return undep, nil
}

// placeOne finds one container a machine: the direct shortest-path
// search first, then the rescue steps do allows, least disruptive
// first.  Preemption's victims are handed back for re-queueing (run
// scratch, valid until the next tryPreemption).
func (r *run) placeOne(c *workload.Container, do steps) (victims []*workload.Container, ok bool, err error) {
	if m := r.search.findMachine(c, noExclusion); m != topology.Invalid {
		err = r.place(c, m)
		return nil, err == nil, err
	}
	if do&stepMigrate != 0 {
		if ok, err = r.tryMigration(c); ok || err != nil {
			return nil, ok, err
		}
		if ok, err = r.tryDefrag(c); ok || err != nil {
			return nil, ok, err
		}
	}
	if do&stepPreempt != 0 {
		return r.tryPreemption(c)
	}
	return nil, false, nil
}

// Remove handles a departure: the container's resources are released
// and its flow cancelled.  Removing an unplaced container is an
// error.
//
//aladdin:hotpath departures run between placements; steady state stays allocation-free
func (s *Session) Remove(containerID string) error {
	c := s.w.Container(containerID)
	if c == nil {
		return fmt.Errorf("core: session: unknown container %s", containerID)
	}
	m := s.r.asg[c.Ord]
	if m == topology.Invalid {
		return fmt.Errorf("core: session: container %s not placed", containerID)
	}
	if err := s.r.unplace(c, m); err != nil {
		return err
	}
	s.led.set(c.Ord, ledgerUndeployed)
	return nil
}

// FailureResult summarises one FailMachine call.
type FailureResult struct {
	// Machine is the failed machine.
	Machine topology.MachineID
	// Evicted counts the containers resident at the moment of
	// failure (including residents unknown to the workload).
	Evicted int
	// Replaced counts evicted containers the re-placement pipeline
	// parked on other machines.
	Replaced int
	// Stranded lists the containers left undeployed: evicted
	// residents with no feasible new home, residents unknown to the
	// workload (they die with the machine), and any lower-priority
	// collateral victims preempted during re-placement.
	Stranded []string
	// Migrations and Preemptions are the pipeline costs incurred to
	// re-place the evicted residents.
	Migrations, Preemptions int
	// Elapsed is the wall-clock time of eviction plus re-placement —
	// the re-placement latency a production cluster would alert on.
	Elapsed time.Duration
}

// FailMachine models a machine loss: the machine is taken out of
// service (the search index and all rescue passes stop considering
// it), every resident's flow is cancelled and its resources and
// blacklist entries released, and the evicted residents re-enter the
// normal place → migrate → defragment → preempt pipeline in priority
// order — highest first, so a displaced high-priority container is
// never beaten to the remaining capacity by a lower-priority
// neighbour from the same machine.  Containers with no feasible new
// home are stranded (reported in the result) exactly like rejected
// arrivals; they may be re-submitted later via Place.
//
// The session stays audit-clean across the call: anti-affinity and
// priority invariants are enforced by the shared pipeline, and flow
// conservation holds because every eviction cancels its flow before
// any re-placement augments a new path.
func (s *Session) FailMachine(id topology.MachineID) (*FailureResult, error) {
	start := s.opts.now()
	r := s.r
	machine := r.cluster.Machine(id)
	if machine == nil {
		return nil, fmt.Errorf("core: session: unknown machine %d", id)
	}
	if !machine.Up() {
		return nil, fmt.Errorf("core: session: machine %s is already down", machine.Name)
	}
	machine.MarkDown()
	r.search.noteUpdate(id)
	r.met.failures.Inc()
	r.met.machinesUp.Add(-1)
	r.met.machinesDown.Add(1)

	migBefore, preBefore := r.migrations, r.preempts
	res := &FailureResult{Machine: id}
	s.undep = s.undep[:0] // an early error return must not leave an earlier pass's list behind

	// Snapshot the residents, then evict each: release the (down)
	// machine's allocation, cancel the container's flow, clear its
	// blacklist contributions and refresh the index — r.unplace is the
	// same single mutation path every other eviction uses.  The
	// topology's string-ID view is used deliberately: it is the only
	// view that still includes pre-placed residents unknown to the
	// workload, and machine failure is a cold path.
	ids := append([]string(nil), machine.ContainerIDs()...)
	var evicted []*workload.Container
	for _, cid := range ids {
		res.Evicted++
		c := s.w.Container(cid)
		if c == nil {
			// A pre-placed resident unknown to the workload: it was
			// never routed through the flow network, so there is
			// nothing to cancel and nothing to re-place.
			if _, err := machine.Release(cid); err != nil {
				res.Elapsed = s.opts.now().Sub(start)
				return res, err
			}
			r.search.noteUpdate(id)
			res.Stranded = append(res.Stranded, cid)
			continue
		}
		if err := r.unplace(c, id); err != nil {
			res.Elapsed = s.opts.now().Sub(start)
			return res, err
		}
		s.led.set(c.Ord, ledgerUndeployed)
		evicted = append(evicted, c)
	}

	// Highest priority first, so a displaced high-priority container is
	// never beaten to the remaining capacity by a neighbour.
	byPriority(evicted)
	var err error
	s.undep, err = s.placeQueue(evicted, s.undep[:0], s.steps)
	// Rendered into fresh backing: FailureResult has no documented
	// invalidation window, so its Stranded slice must not be
	// overwritten by the next Place call.
	res.Stranded = containerIDs(res.Stranded, s.undep)
	for _, c := range evicted {
		if s.led.state[c.Ord] == ledgerPlaced {
			res.Replaced++
		}
	}
	// Everything the failure left undeployed — evicted residents with
	// no new home and collateral preemption victims alike — is marked
	// stranded: these containers did not depart, so recovery may
	// auto-retry them.  Residents unknown to the workload have no
	// ledger entry and die with the machine.
	s.led.markStranded(s.undep)
	res.Migrations = r.migrations - migBefore
	res.Preemptions = r.preempts - preBefore
	res.Elapsed = s.opts.now().Sub(start)
	r.met.failLat.Observe(res.Elapsed.Microseconds())
	r.trc.Emit(obs.Event{Kind: obs.EvFailMachine, Machine: int64(id), N: int64(res.Evicted)})
	return res, err
}

// RecoverMachine returns a failed machine to service: its capacity
// becomes visible to the search index again, and the isomorphism
// cache is invalidated because reappearing capacity can make a
// previously unplaceable application feasible.  Containers stranded
// by earlier failures are then retried automatically through the
// shared placement pipeline (unbudgeted — recovery should restore as
// much of the pre-failure placement as is feasible); the result
// reports what came back.  A non-nil error alongside a non-nil result
// is an internal placement error from the retry sweep.
func (s *Session) RecoverMachine(id topology.MachineID) (*RecoverResult, error) {
	start := s.opts.now()
	if err := s.markUp(id); err != nil {
		return nil, err
	}
	return recovered(s.opts, start, id, s.RetryStranded)
}

// markUp is the first half of a recovery: the failed machine goes back
// into service on the session that schedules on it.  Which stranded
// containers then retry is the caller's business — a session's own, or
// for a shard the whole sharded session's.
func (s *Session) markUp(id topology.MachineID) error {
	machine := s.r.cluster.Machine(id)
	if machine == nil {
		return fmt.Errorf("core: session: unknown machine %d", id)
	}
	if machine.Up() {
		return fmt.Errorf("core: session: machine %s is not down", machine.Name)
	}
	machine.MarkUp()
	s.r.search.noteUpdate(id)
	s.r.search.il.bump()
	s.r.met.recoveries.Inc()
	s.r.met.machinesUp.Add(1)
	s.r.met.machinesDown.Add(-1)
	s.r.trc.Emit(obs.Event{Kind: obs.EvRecoverMachine, Machine: int64(id)})
	return nil
}

// recovered is the second half of a recovery, the same for both session
// shapes: run the shape's unbudgeted stranded retry sweep and report it
// as machine id's RecoverResult.  A non-nil error beside the result is
// an internal placement error from the sweep.
func recovered(opts Options, start time.Time, id topology.MachineID, retry func(budget int) (*RetryResult, error)) (*RecoverResult, error) {
	res := &RecoverResult{Machine: id}
	rr, err := retry(0)
	if rr != nil {
		res.RetryResult = *rr
	}
	res.Elapsed = opts.now().Sub(start)
	return res, err
}

// Consolidate runs the machine-draining pass on demand (e.g. during
// off-peak hours) and returns the number of migrations it performed.
// A non-nil error is a CorruptionError: a drain's rollback failed and
// the session state can no longer be trusted.
func (s *Session) Consolidate() (int, error) {
	before := s.r.consolidations
	err := s.r.consolidate()
	return s.r.consolidations - before, err
}

// Audit re-checks the live placement for violations; a healthy
// session always returns an empty slice.
func (s *Session) Audit() []constraint.Violation {
	return constraint.AuditAntiAffinity(s.w, s.r.assignmentMap())
}

// FlowConservation verifies Equation 2 on the live network.
func (s *Session) FlowConservation() error {
	return s.r.net.checkConservation()
}
