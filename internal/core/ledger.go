package core

import (
	"fmt"
	"sort"

	"aladdin/internal/workload"
)

// Ledger states: every container the session has seen is either
// currently deployed or was submitted and is now undeployed (arrival
// rejection, removal, preemption stranding, machine failure).  The
// zero value means never submitted, so a fresh ledger needs no fill.
// ledgerStranded is the undeployed sub-state for containers knocked
// out by a machine failure: they did not ask to leave, so recovery
// (and the rebalancer's stranded sweep) auto-retries them; every
// other undeployed path requires an explicit re-submission.
const (
	ledgerNever      uint8 = 0
	ledgerPlaced     uint8 = 1
	ledgerUndeployed uint8 = 2
	ledgerStranded   uint8 = 3
)

// ledger is a scheduler manager's submission ledger: each container's
// submission state by ordinal, the batch-membership marks of the Place
// call in flight, and the batch admission rules that read both.  A
// Session owns one for its cluster; a ShardedSession owns one for the
// whole partitioned cluster (its shard sessions keep their own, which
// the wrapper never reads).  A ledger does no locking: the Session is
// single-threaded, the sharded wrapper calls it under its table lock.
type ledger struct {
	w *workload.Workload

	//aladdin:domain ord -> _ container ordinal → submission state
	state []uint8
	// strandedN counts ledgerStranded entries so the retry sweeps skip
	// in O(1) when nothing is stranded.
	strandedN int

	// inBatch[ord] == epoch means the container is part of the Place
	// call in flight.  An epoch bump resets all marks in O(1).
	epoch uint32
	//aladdin:domain ord -> _ container ordinal → epoch of the batch that admitted it
	inBatch []uint32
}

func newLedger(w *workload.Workload) ledger {
	return ledger{
		w:       w,
		state:   make([]uint8, w.NumContainers()),
		inBatch: make([]uint32, w.NumContainers()),
	}
}

// set writes a container's submission state, keeping the stranded
// count in sync.  Every state change funnels through here so strandedN
// can never drift.
//
//aladdin:hotpath runs per container in placeQueue; two comparisons, no allocations
func (l *ledger) set(ord int, state uint8) {
	if l.state[ord] == ledgerStranded {
		l.strandedN--
	}
	if state == ledgerStranded {
		l.strandedN++
	}
	l.state[ord] = state
}

// admit opens a new batch: each container is canonicalised, checked
// against the ledger and marked a member, and the canonical batch is
// appended to queue.  The whole batch is validated before anything is
// placed; on an error nothing has been placed and the queue is void.
//
//aladdin:hotpath the admission prologue of Session.Place; appends into caller scratch
func (l *ledger) admit(batch, queue []*workload.Container) ([]*workload.Container, error) {
	l.epoch++
	canon := l.w.Containers()
	for _, c := range batch {
		if c == nil {
			return nil, fmt.Errorf("core: session: nil container in batch")
		}
		// Canonicalise to the workload's own container value: callers
		// may hand in equivalent copies, but all ordinal-keyed state
		// (assignment, network, ledger) is owned by the canonical one.
		// Batches straight from the workload (the common case) pass the
		// pointer identity check and skip the map probe.
		if c.Ord < 0 || c.Ord >= len(canon) || canon[c.Ord] != c {
			cc := l.w.Container(c.ID)
			if cc == nil {
				return nil, fmt.Errorf("core: session: container %s not in workload universe", c.ID)
			}
			c = cc
		}
		if l.state[c.Ord] == ledgerPlaced {
			return nil, fmt.Errorf("core: session: container %s already placed", c.ID)
		}
		// A duplicate must be caught here: by the time the pipeline saw
		// the second copy, the first would already be deployed and the
		// "not currently placed" check above would have passed for
		// both, double-booking the machine.
		if l.inBatch[c.Ord] == l.epoch {
			return nil, fmt.Errorf("core: session: container %s appears more than once in batch", c.ID)
		}
		l.inBatch[c.Ord] = l.epoch
		queue = append(queue, c)
	}
	return queue, nil
}

// member reports whether the container was admitted by the batch in
// flight — what separates a stranded batch member from a re-queued
// preemption victim of an earlier batch.
func (l *ledger) member(ord int) bool { return l.inBatch[ord] == l.epoch }

// markStranded promotes every still-undeployed container of cs to
// failure-stranded: what a failure or a retry sweep left without a home
// did not depart, so the next sweep retries it.
func (l *ledger) markStranded(cs []*workload.Container) {
	for _, c := range cs {
		if l.state[c.Ord] == ledgerUndeployed {
			l.set(c.Ord, ledgerStranded)
		}
	}
}

// stranded lists the failure-stranded containers in workload ordinal
// order; the slice is freshly allocated.
func (l *ledger) stranded() []*workload.Container {
	if l.strandedN == 0 {
		return nil
	}
	out := make([]*workload.Container, 0, l.strandedN)
	cs := l.w.Containers()
	for ord, st := range l.state {
		if st == ledgerStranded {
			out = append(out, cs[ord])
		}
	}
	return out
}

// forget clears a container's failure-stranded mark so retry sweeps
// stop attempting it.  Forgetting a placed container is an error (use
// Remove); forgetting a container that is not stranded is a no-op.
func (l *ledger) forget(containerID string) error {
	c := l.w.Container(containerID)
	if c == nil {
		return fmt.Errorf("core: session: unknown container %s", containerID)
	}
	if l.state[c.Ord] == ledgerPlaced {
		return fmt.Errorf("core: session: container %s is placed; use Remove", containerID)
	}
	if l.state[c.Ord] == ledgerStranded {
		l.set(c.Ord, ledgerUndeployed)
	}
	return nil
}

// export renders the ledger for a SessionState: every submitted
// container that is not placed, and the failure-stranded subset of
// those — stranded is an undeployed sub-state, listed in both so a
// restored session keeps auto-retrying it.  Both sorted; nil when empty.
func (l *ledger) export() (undeployed, stranded []string) {
	for ord, c := range l.w.Containers() {
		switch l.state[ord] {
		case ledgerUndeployed:
			undeployed = append(undeployed, c.ID)
		case ledgerStranded:
			undeployed = append(undeployed, c.ID)
			stranded = append(stranded, c.ID)
		}
	}
	sort.Strings(undeployed)
	sort.Strings(stranded)
	return undeployed, stranded
}

// restore fills a fresh ledger from a captured state: the one
// validation every restore runs, whichever session shape it rebuilds.
// It is strict — no state at all, a container outside the workload
// universe, one listed both placed and undeployed, or a stranded one
// missing from the undeployed list fails the restore rather than
// yielding a silently diverged ledger.
func (l *ledger) restore(st *SessionState) error {
	if st == nil {
		return fmt.Errorf("core: restore: nil state")
	}
	// Distinct ordinals: the writes commute, and which offending
	// container the error names may vary with map order, but whether an
	// error is returned cannot.
	//aladdin:nondeterministic-ok commutative writes, error-path-only selection
	for id := range st.Assignment {
		c := l.w.Container(id)
		if c == nil {
			return fmt.Errorf("core: restore: container %s not in workload universe", id)
		}
		l.state[c.Ord] = ledgerPlaced
	}
	for _, id := range st.Undeployed {
		c := l.w.Container(id)
		if c == nil {
			return fmt.Errorf("core: restore: undeployed container %s not in workload universe", id)
		}
		if l.state[c.Ord] == ledgerPlaced {
			return fmt.Errorf("core: restore: container %s both placed and undeployed", id)
		}
		l.state[c.Ord] = ledgerUndeployed
	}
	for _, id := range st.Stranded {
		c := l.w.Container(id)
		if c == nil {
			return fmt.Errorf("core: restore: stranded container %s not in workload universe", id)
		}
		if l.state[c.Ord] != ledgerUndeployed {
			return fmt.Errorf("core: restore: stranded container %s not in the undeployed ledger", id)
		}
		l.set(c.Ord, ledgerStranded)
	}
	return nil
}

// byPriority orders containers for re-placement: highest priority
// first (ties: workload order), so scarce capacity goes to the
// containers whose weighted flows dominate without needing preemption
// to fix the order up after the fact.
func byPriority(cs []*workload.Container) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Priority != cs[j].Priority {
			return cs[i].Priority > cs[j].Priority
		}
		return cs[i].Ord < cs[j].Ord
	})
}

// containerIDs renders containers as their IDs, appended to dst: the
// pipeline works on containers, the public results name them.
func containerIDs(dst []string, cs []*workload.Container) []string {
	for _, c := range cs {
		dst = append(dst, c.ID)
	}
	return dst
}
