package core

import (
	"time"

	"aladdin/internal/resource"
	"aladdin/internal/topology"
)

// This file is the continuous-rescheduling face of the session: the
// budgeted consolidation entry points, the stranded-container retry
// sweep that RecoverMachine and the background rebalancer share, and
// the packing statistics the rebalancer's triggers read.  Everything
// here warm-starts from the live flow network and search index — no
// state is rebuilt, so the cost of a call is proportional to the
// moves it makes, not to the cluster size.

// ConsolidateResult reports one budgeted consolidation call.
type ConsolidateResult struct {
	// Moves counts the containers relocated by this call.
	Moves int `json:"moves"`
	// More is set when eligible drain work remained beyond the
	// budget; a later call can resume it.  It is conservative: a
	// skipped machine may turn out undrainable when attempted.
	More bool `json:"more"`
}

// RetryResult reports one stranded-container retry sweep.
type RetryResult struct {
	// Retried counts the stranded containers the sweep attempted.
	Retried int `json:"retried"`
	// Replaced lists the retried containers that found a new home.
	Replaced []string `json:"replaced,omitempty"`
	// Migrations and Preemptions are the rescue moves the sweep
	// spent; under a budget their sum never exceeds it.
	Migrations  int `json:"migrations"`
	Preemptions int `json:"preemptions"`
}

// RecoverResult reports one RecoverMachine call, including the
// automatic stranded-container retry it runs.
type RecoverResult struct {
	Machine topology.MachineID `json:"machine"`
	// RetryResult is the stranded retry sweep's own report (all zero
	// when nothing was stranded).
	RetryResult
	Elapsed time.Duration `json:"elapsed_ns"`
}

// PackingStats is a cheap point-in-time summary of placement quality,
// read by the rebalancer to decide whether a cycle is worth running.
type PackingStats struct {
	// Machines is the cluster size; Used counts up machines hosting
	// at least one container; Down counts machines out of service.
	Machines int `json:"machines"`
	Used     int `json:"used"`
	Down     int `json:"down"`
	// MeanUtilization is the mean CPU utilization across up machines
	// in [0, 1].
	MeanUtilization float64 `json:"mean_utilization"`
	// FreeCPU is the total free CPU across up machines and
	// LargestFreeCPU the biggest single-machine slab of it — their
	// ratio is the fragmentation signal (free capacity that exists
	// but is shattered across machines).
	FreeCPU        int64 `json:"free_cpu"`
	LargestFreeCPU int64 `json:"largest_free_cpu"`
	// Stranded counts containers knocked out by machine failures and
	// still waiting for a feasible home.
	Stranded int `json:"stranded"`
}

// packingAccum folds one or more clusters (the sharded session reads
// its cluster one shard's view at a time, under that shard's lock) into
// a PackingStats.
type packingAccum struct {
	ps      PackingStats
	utilSum float64
	up      int
}

// add folds one cluster's machines into the accumulator.  The
// utilization ratio is a reporting metric, never an allocation
// decision; every capacity aggregate here stays exact int64.
//
//aladdin:float-ok reporting metric, not capacity accounting
func (a *packingAccum) add(cluster *topology.Cluster) {
	a.ps.Machines += len(cluster.Machines())
	for _, m := range cluster.Machines() {
		if !m.Up() {
			a.ps.Down++
			continue
		}
		a.up++
		if m.NumContainers() > 0 {
			a.ps.Used++
		}
		free := m.Free().Dim(resource.CPU)
		cap := m.Capacity().Dim(resource.CPU)
		a.ps.FreeCPU += free
		if free > a.ps.LargestFreeCPU {
			a.ps.LargestFreeCPU = free
		}
		if cap > 0 {
			a.utilSum += float64(cap-free) / float64(cap)
		}
	}
}

// finish closes out the accumulator, averaging the per-machine
// utilization ratios across up machines.
//
//aladdin:float-ok reporting metric, not capacity accounting
func (a *packingAccum) finish(stranded int) PackingStats {
	a.ps.Stranded = stranded
	if a.up > 0 {
		a.ps.MeanUtilization = a.utilSum / float64(a.up)
	}
	return a.ps
}

// PackingStats summarises the session's current placement quality.
func (s *Session) PackingStats() PackingStats {
	var a packingAccum
	a.add(s.cluster)
	return a.finish(s.led.strandedN)
}

// ConsolidateN runs the machine-draining consolidation pass with a
// per-call move budget: at most budget containers relocate (0 =
// unlimited).  Result.More reports whether drain work remained; a
// later call resumes it, so interleaving callers (the rebalancer, the
// HTTP handler) can spread a full sweep across cycles without ever
// holding the session for an unbounded pass.  A non-nil error is a
// CorruptionError: a drain's rollback failed and the session state
// can no longer be trusted.
func (s *Session) ConsolidateN(budget int) (ConsolidateResult, error) {
	moves, more, err := s.r.consolidateBudget(budget)
	return ConsolidateResult{Moves: moves, More: more}, err
}

// RetryStranded re-submits every failure-stranded container through
// the shared placement pipeline in priority order (highest first),
// spending at most budget rescue moves — migrations plus preemption
// evictions; direct placements are free (0 = unlimited).  Containers
// that still fit nowhere stay stranded for the next sweep.
func (s *Session) RetryStranded(budget int) (*RetryResult, error) {
	res := &RetryResult{}
	queue := s.led.stranded()
	if len(queue) == 0 {
		return res, nil
	}
	r := s.r
	byPriority(queue)
	res.Retried = len(queue)
	migBefore, preBefore := r.migrations, r.preempts
	r.setMoveBudget(budget)
	undep, err := s.placeQueue(queue, nil, s.steps)
	r.setMoveBudget(0)
	res.Migrations = r.migrations - migBefore
	res.Preemptions = r.preempts - preBefore
	// Whatever the sweep left undeployed — retried containers that
	// still fit nowhere and collateral preemption victims alike —
	// stays stranded so the next sweep picks it up.
	s.led.markStranded(undep)
	for _, c := range queue {
		if s.led.state[c.Ord] == ledgerPlaced {
			res.Replaced = append(res.Replaced, c.ID)
		}
	}
	return res, err
}

// StrandedIDs lists the failure-stranded containers in workload
// ordinal order.  The slice is freshly allocated; callers may keep it.
func (s *Session) StrandedIDs() []string { return containerIDs(nil, s.led.stranded()) }

// Forget clears a container's failure-stranded mark so retry sweeps
// stop attempting it — the online simulator calls it when a stranded
// container's application departs.  Forgetting a placed container is
// an error (use Remove); forgetting a container that is not stranded
// is a no-op.
func (s *Session) Forget(containerID string) error { return s.led.forget(containerID) }
