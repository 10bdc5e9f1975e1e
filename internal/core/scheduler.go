package core

import (
	"fmt"
	"sort"

	"aladdin/internal/constraint"
	"aladdin/internal/obs"
	"aladdin/internal/resource"
	"aladdin/internal/sched"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// Scheduler is the Aladdin scheduler.  One instance is reusable
// across runs; all run state lives in a per-run context.
type Scheduler struct {
	opts Options
}

// New builds an Aladdin scheduler with the given options.
func New(opts Options) *Scheduler { return &Scheduler{opts: opts} }

// NewDefault builds the paper's headline configuration (weight base
// 16, IL+DL, migration and preemption on).
func NewDefault() *Scheduler { return New(DefaultOptions()) }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.opts.Name() }

// run carries the mutable scheduling state of one session: the flow
// network, blacklists, search index, assignment and rescue scratch that
// every entry point (Place, FailMachine, RetryStranded, Consolidate,
// and through a Session, Schedule) shares and keeps warm.
type run struct {
	opts      Options
	w         *workload.Workload
	cluster   *topology.Cluster
	net       *network
	ladder    *constraint.WeightLadder
	blacklist *constraint.Blacklist
	search    *searcher
	met       coreMetrics
	trc       *obs.Tracer

	// asg is the live assignment, keyed by container ordinal (Invalid =
	// undeployed).  place/unplace are the scheduler's innermost
	// mutations; a slice write keeps them free of string hashing.  The
	// ID-keyed map views hand out materialise on demand.
	//
	//aladdin:domain ord -> machine container ordinal → assigned machine
	asg    []topology.MachineID
	asgMap constraint.Assignment
	// residents[m] lists the workload ordinals placed on machine m in
	// ascending ordinal order — the reverse view of asg, maintained by
	// place/unplace so migration, drain, defrag and preemption walk a
	// machine's occupants without the topology layer's string-ID round
	// trip.  Pre-placed residents unknown to the workload are absent;
	// consumers that need them (drain) detect the mismatch against
	// Machine.NumContainers.
	//
	//aladdin:domain machine, _ -> ord machine id → resident container ordinals
	residents [][]int32
	//aladdin:domain ord -> _ container ordinal → requeue count
	requeues       []int
	migrations     int
	consolidations int
	preempts       int
	inversions     []constraint.Violation

	// preemptLog records every eviction for the runtime Auditor's
	// priority-ordering check: each entry must have victim priority
	// strictly below the claimant's (§III.B) unless the DisableWeights
	// ablation is on.
	preemptLog []preemptEvent

	// moveCap caps rescue moves (migration relocations, defrag moves,
	// preemption evictions) while non-zero; moveStartMig/moveStartPre
	// snapshot the counters at setMoveBudget so movesRemaining can
	// charge only moves made under the budget.  Direct placements are
	// free: the budget prices churn, not admissions.
	moveCap      int
	moveStartMig int
	moveStartPre int

	rescue rescueScratch
}

// setMoveBudget caps subsequent rescue moves at cap (<= 0 clears the
// budget).  The rescue paths consult movesRemaining before committing
// to a relocation set, so a bounded call never exceeds the cap.
func (r *run) setMoveBudget(cap int) {
	if cap <= 0 {
		r.moveCap = 0
		return
	}
	r.moveCap = cap
	r.moveStartMig = r.migrations
	r.moveStartPre = r.preempts
}

// movesRemaining reports how many rescue moves the active budget still
// allows; effectively unbounded when no budget is set.
func (r *run) movesRemaining() int {
	if r.moveCap <= 0 {
		return int(^uint(0) >> 1)
	}
	spent := (r.migrations - r.moveStartMig) + (r.preempts - r.moveStartPre)
	if spent >= r.moveCap {
		return 0
	}
	return r.moveCap - spent
}

// preemptEvent is one preemption eviction: claimant displaced victim
// on machine.
type preemptEvent struct {
	claimant, victim *workload.Container
	machine          topology.MachineID
}

// newRun builds the mutable state for one scheduling context.
func newRun(opts Options, w *workload.Workload, cluster *topology.Cluster) *run {
	r := &run{
		opts:      opts,
		w:         w,
		cluster:   cluster,
		net:       buildNetwork(w, cluster),
		ladder:    constraint.NewWeightLadder(w, opts.WeightBase),
		blacklist: constraint.NewBlacklist(w, cluster.Size()),
		asg:       make([]topology.MachineID, w.NumContainers()),
		residents: make([][]int32, cluster.Size()),
		requeues:  make([]int, w.NumContainers()),
		rescue:    rescueScratch{memo: make(map[classKey]relocation)},
	}
	for i := range r.asg {
		r.asg[i] = topology.Invalid
	}
	r.search = newSearcher(opts, w, cluster, r.blacklist)
	r.met = newCoreMetrics(opts.Metrics, opts.MetricLabels)
	r.trc = opts.Tracer
	// Assigned after construction so newSearcher's signature stays
	// stable for the search benchmarks that build one directly.
	r.search.met = r.met
	r.met.initGauges(cluster)
	return r
}

// assignmentMap materialises the ID-keyed view of the assignment.
// The map is cached until the next place/unplace, so repeated reads
// between mutations share one map (sessions hand it out by design).
func (r *run) assignmentMap() constraint.Assignment {
	if r.asgMap == nil {
		r.asgMap = make(constraint.Assignment, len(r.asg))
		for _, c := range r.w.Containers() {
			if m := r.asg[c.Ord]; m != topology.Invalid {
				r.asgMap[c.ID] = m
			}
		}
	}
	return r.asgMap
}

// Schedule implements sched.Scheduler: the batch face of the one
// placement pipeline.  A fresh Session places the arrivals in the given
// order, each routed through the tiered flow network with migration
// and preemption invoked when no direct augmenting path exists; the
// session is then consolidated, and what the main pass stranded gets
// one more try over the drained space.
func (s *Scheduler) Schedule(w *workload.Workload, cluster *topology.Cluster, arrivals []*workload.Container) (*sched.Result, error) {
	start := s.opts.now()
	opts := s.opts
	// The result below is the session-wide assignment; a per-batch ID
	// map would be built only to be discarded.
	opts.LeanPlaceResult = true
	sess := NewSession(opts, w, cluster)
	if _, err := sess.Place(arrivals); err != nil {
		return nil, err
	}
	undeployed := sess.undep

	if s.opts.Migration {
		// Consolidation pass: empty lightly-loaded machines into the
		// free space of used ones — the final step of minimising the
		// number of used machines (§II.A's resource-efficiency
		// objective).
		if _, err := sess.Consolidate(); err != nil {
			return nil, err
		}
		// Drained machines expose whole-machine gaps; containers that
		// were stranded by fragmentation get one more try: the direct
		// search and the relocation rescue only.  No preemption — the
		// retry must not displace what the main pass settled — and no
		// IL, whose proofs any drain has voided.
		if len(undeployed) > 0 {
			var err error
			if undeployed, err = sess.placeQueue(undeployed, nil, stepMigrate); err != nil {
				return nil, err
			}
		}
	}

	if s.opts.GangScheduling {
		// Applied last: the rescue passes above may have completed a
		// partially-placed gang, and withdrawals must be final.
		var err error
		if undeployed, err = sess.enforceGangs(undeployed); err != nil {
			return nil, err
		}
	}

	r := sess.r
	res := &sched.Result{
		Scheduler:      s.Name(),
		Assignment:     r.assignmentMap(),
		Undeployed:     containerIDs(nil, undeployed),
		Violations:     r.inversions,
		Migrations:     r.migrations,
		Consolidations: r.consolidations,
		Preemptions:    r.preempts,
		Elapsed:        s.opts.now().Sub(start),
		WorkUnits:      r.search.explored,
	}
	res.Finalize(w)
	return res, nil
}

// place deploys a container on a machine, updating every view of the
// state: machine allocation, blacklist, flow network, and — via
// agg.update — the search index and rack/sub-cluster aggregates.
// Every mutation path (direct placement, migration, defragmentation,
// consolidation drains, preemption evictions, gang withdrawals)
// funnels through place/unplace, so the index can never go stale.
func (r *run) place(c *workload.Container, m topology.MachineID) error {
	machine := r.cluster.Machine(m)
	if err := machine.Allocate(c.ID, c.Demand); err != nil {
		return fmt.Errorf("core: place: %w", err)
	}
	if err := r.net.augment(c, m); err != nil {
		// Roll back the allocation to keep views consistent.
		if _, rerr := machine.Release(c.ID); rerr != nil {
			return fmt.Errorf("core: place rollback failed: %v (after %w)", rerr, err)
		}
		return err
	}
	r.blacklist.PlaceRef(m, r.search.refOf(c))
	r.asg[c.Ord] = m
	r.addResident(m, int32(c.Ord))
	r.asgMap = nil
	r.search.noteUpdate(m)
	r.met.placements.Inc()
	r.met.placedGauge.Add(1)
	r.trc.Emit(obs.Event{Kind: obs.EvAugmentingPath, Container: c.ID, Machine: int64(m)})
	return nil
}

// addResident records the container ordinal in machine m's resident
// list, keeping it ordinal-sorted.  Lists are short (containers per
// machine), so the insertion shift beats any tree; the slice keeps its
// capacity across remove/add churn, so steady-state placement cycles
// allocate nothing.
func (r *run) addResident(m topology.MachineID, ord int32) {
	rs := r.residents[m]
	i := len(rs)
	for i > 0 && rs[i-1] > ord {
		i--
	}
	rs = append(rs, 0)
	copy(rs[i+1:], rs[i:])
	rs[i] = ord
	r.residents[m] = rs
}

// removeResident drops the container ordinal from machine m's
// resident list.
func (r *run) removeResident(m topology.MachineID, ord int32) {
	rs := r.residents[m]
	for i, o := range rs {
		if o == ord {
			copy(rs[i:], rs[i+1:])
			r.residents[m] = rs[:len(rs)-1]
			return
		}
	}
}

// unplace removes a container from its machine, reversing place.
func (r *run) unplace(c *workload.Container, m topology.MachineID) error {
	machine := r.cluster.Machine(m)
	if _, err := machine.Release(c.ID); err != nil {
		return fmt.Errorf("core: unplace: %w", err)
	}
	if err := r.net.cancel(c, m); err != nil {
		return err
	}
	r.blacklist.ReleaseRef(m, r.search.refOf(c))
	r.asg[c.Ord] = topology.Invalid
	r.removeResident(m, int32(c.Ord))
	r.asgMap = nil
	r.search.noteUpdate(m)
	r.search.il.bump()
	r.met.placedGauge.Add(-1)
	return nil
}

// tryMigration clears anti-affinity blockage (Fig. 3b): find a
// machine where the container fits on resources but the blacklist
// blocks it, and relocate the blocking containers elsewhere.  The
// relocated containers stay deployed, so priority safety holds by
// construction.
func (r *run) tryMigration(c *workload.Container) (bool, error) {
	if !r.met.on {
		return r.tryMigrationInner(c)
	}
	start := r.opts.now()
	ok, err := r.tryMigrationInner(c)
	r.met.migLat.Observe(r.opts.now().Sub(start).Microseconds())
	return ok, err
}

// Attempt caps of the two relocate-to-admit rescues: how many ranked
// candidate machines each tries before giving up.
const (
	maxMigrationAttempts = 32
	maxDefragAttempts    = 16
)

func (r *run) tryMigrationInner(c *workload.Container) (bool, error) {
	// Enumerate every machine the container fits on resource-wise,
	// then try the ones with the fewest blockers first: lightly
	// blocked machines clear cheapest, and under heavy anti-affinity
	// pressure (a large spread service arriving into a packed
	// cluster) most machines hold only one or two blockers.
	ref := r.search.refOf(c)
	limit := r.opts.maxBlockers()
	if rem := r.movesRemaining(); rem < limit {
		limit = rem // rescue-move budget binds tighter
	}
	sc := &r.rescue
	sc.top.reset(maxMigrationAttempts)
	for _, mid := range r.search.findResourceFits(c, noExclusion, 0) {
		if r.blacklist.AllowsRef(mid, ref) {
			// A direct path exists after all (state changed since the
			// failed search); just take it.
			return r.place(c, mid) == nil, nil
		}
		sc.blockers = r.appendBlockers(sc.blockers[:0], mid, ref)
		if n := len(sc.blockers); n > 0 && n <= limit {
			sc.top.offer(rankEntry{key: int64(n), m: mid})
		}
	}
	clear(sc.memo)
	for _, e := range sc.top.e[:sc.top.n] {
		if ok, err := r.relocate(e.m, c, ref); err != nil {
			return false, err
		} else if ok {
			return true, nil
		}
	}
	return false, nil
}

// appendBlockers appends the containers on machine m whose app
// conflicts with app ref (pre-placed residents outside the workload
// carry no constraints and are never blockers).
func (r *run) appendBlockers(dst []*workload.Container, m topology.MachineID, ref constraint.AppRef) []*workload.Container {
	cs := r.w.Containers()
	for _, ord := range r.residents[m] {
		if r.blacklist.ConflictsRef(r.search.refs[ord], ref) {
			dst = append(dst, cs[ord])
		}
	}
	return dst
}

// relocate moves every container blocking app ref off machine m and
// places c there; on any failure all moves are rolled back.  A non-nil
// error means a rollback or restore step itself failed and the
// scheduler state is corrupt (see CorruptionError).
func (r *run) relocate(m topology.MachineID, c *workload.Container, ref constraint.AppRef) (bool, error) {
	sc := &r.rescue
	// Re-listed rather than carried from the ranking pass: every failed
	// attempt in between rolled back exactly, so the list is the same.
	sc.blockers = r.appendBlockers(sc.blockers[:0], m, ref)
	sc.done = sc.done[:0]
	for _, b := range sc.blockers {
		if err := r.unplace(b, m); err != nil {
			return false, r.undoMoves("migration")
		}
		dest := r.relocationFor(b, m)
		if dest == topology.Invalid {
			// Put the blocker back and abandon this machine.
			if err := r.place(b, m); err != nil {
				return false, r.corrupt("migration restore blocker", err)
			}
			return false, r.undoMoves("migration")
		}
		if err := r.place(b, dest); err != nil {
			if perr := r.place(b, m); perr != nil {
				return false, r.corrupt("migration restore blocker after failed move", perr)
			}
			return false, r.undoMoves("migration")
		}
		sc.done = append(sc.done, rescueMove{c: b, from: m, to: dest})
	}
	if !r.blacklist.AllowsRef(m, ref) || !r.cluster.Machine(m).Fits(c.Demand) {
		return false, r.undoMoves("migration")
	}
	if err := r.place(c, m); err != nil {
		return false, r.undoMoves("migration")
	}
	r.commitMoves(c, "migration")
	return true, nil
}

// rescueScratch is the rescue paths' working memory, reused across
// calls the way the searcher reuses its visitor state: candidate
// ranking, blocker, mover and victim lists, the undo log of the
// attempt in flight and the relocation memo.  Each rescue call starts
// it over (only the victims handed back by tryPreemption outlive
// theirs, until the next one), and none of it grows with cluster size.
type rescueScratch struct {
	top      topK
	blockers []*workload.Container
	movers   []*workload.Container
	victims  []*workload.Container
	// done logs the moves of the attempt in flight, in order, for
	// rollback; empty means the cluster is in the state the rescue
	// call started from (bar the one container just lifted).
	done []rescueMove
	memo map[classKey]relocation
	// check, set only by tests, receives every memoised relocation
	// next to a fresh search's answer for the same question.
	check func(b *workload.Container, m, memoised, fresh topology.MachineID)
}

// rescueMove is one relocation of a rescue attempt.
type rescueMove struct {
	c        *workload.Container
	from, to topology.MachineID
}

// rankEntry orders rescue candidates: smaller key first, ties by
// machine ID.  A machine is offered once, so the order is total.
type rankEntry struct {
	key int64
	m   topology.MachineID
}

func (a rankEntry) before(b rankEntry) bool {
	return a.key < b.key || (a.key == b.key && a.m < b.m)
}

// topK keeps the k first entries, in order, of everything offered —
// what sorting all candidates and truncating to the attempt cap
// selects, without a slice that grows with the cluster.
type topK struct {
	n, k int
	e    [maxMigrationAttempts]rankEntry
}

func (t *topK) reset(k int) { t.n, t.k = 0, k }

// admits reports whether e would enter the selection.
func (t *topK) admits(e rankEntry) bool {
	return t.n < t.k || e.before(t.e[t.n-1])
}

// offer inserts e at its rank, dropping the last entry when full.
func (t *topK) offer(e rankEntry) {
	if !t.admits(e) {
		return
	}
	if t.n < t.k {
		t.n++
	}
	i := t.n - 1
	for ; i > 0 && e.before(t.e[i-1]); i-- {
		t.e[i] = t.e[i-1]
	}
	t.e[i] = e
}

// relocation is one remembered relocation search: dest is what
// findMachine returned for the class with machine excluded shut out.
type relocation struct {
	excluded, dest topology.MachineID
}

// relocationFor answers findMachine(b, exclusion{machine: m}) for a
// container b just lifted off machine m, from the class memo when it
// can.
//
// Soundness.  place/unplace are exact inverses on every view a search
// reads (machine allocation, blacklist counters, index leaves), and a
// failed attempt undoes its moves in reverse, so every attempt of one
// tryMigrationInner/tryDefragInner call starts from the same state S
// — a successful attempt ends the call, and the memo is cleared at
// each call's start.  While the attempt has no move outstanding, b
// is the only displaced container and its machine m is excluded, so
// the search sees exactly S minus m, and its answer depends on b only
// through (app ref, demand): the class.  Let the memo hold dest0 =
// best of S minus m0 for that class.  For m ≠ m0 the candidate sets
// differ by two machines: S minus m = (S minus m0 minus m) plus m0.
// If dest0 ≠ m, dest0 is still the best of the first part, so the
// answer is whichever of dest0 and m0 the search prefers, m0
// counting only if it admits the class now (it is in state S: the
// container lifted off it was put back).  If dest0 == m the first
// part has lost its best and only a real search can rank the rest.
// Once a move is outstanding the state is no longer S and every
// lookup is a real search.
func (r *run) relocationFor(b *workload.Container, m topology.MachineID) topology.MachineID {
	sc := &r.rescue
	if len(sc.done) > 0 {
		return r.search.findMachine(b, exclusion{machine: m})
	}
	ref := r.search.refOf(b)
	key := classKey{app: int(ref), demand: b.Demand}
	prev, ok := sc.memo[key]
	if !ok || prev.dest == m {
		dest := r.search.findMachine(b, exclusion{machine: m})
		sc.memo[key] = relocation{excluded: m, dest: dest}
		return dest
	}
	dest := prev.dest
	if m0 := prev.excluded; m0 != m && r.search.admits(m0, b.Demand, ref) &&
		(dest == topology.Invalid || r.search.prefers(m0, dest)) {
		dest = m0
	}
	r.met.relocMemoHits.Inc()
	if sc.check != nil {
		sc.check(b, m, dest, r.search.findMachine(b, exclusion{machine: m}))
	}
	return dest
}

// undoMoves rolls the attempt in flight back, newest move first.
func (r *run) undoMoves(what string) error {
	done := r.rescue.done
	for i := len(done) - 1; i >= 0; i-- {
		mv := done[i]
		if err := r.unplace(mv.c, mv.to); err != nil {
			return r.corrupt(what+" rollback unplace", err)
		}
		if err := r.place(mv.c, mv.from); err != nil {
			return r.corrupt(what+" rollback replace", err)
		}
	}
	return nil
}

// commitMoves books the attempt in flight as landed: its moves count
// as migrations made to admit c.
func (r *run) commitMoves(c *workload.Container, detail string) {
	done := r.rescue.done
	r.migrations += len(done)
	r.met.migrations.Add(int64(len(done)))
	for _, mv := range done {
		r.trc.Emit(obs.Event{Kind: obs.EvMigrate, Container: c.ID, Victim: mv.c.ID, Machine: int64(mv.to), Detail: detail})
	}
}

// enforceGangs applies all-or-nothing application semantics: every
// placed container whose application has at least one undeployed
// sibling is withdrawn and added to the undeployed set.
func (s *Session) enforceGangs(undeployed []*workload.Container) ([]*workload.Container, error) {
	broken := make(map[string]bool)
	for _, c := range undeployed {
		broken[c.App] = true
	}
	if len(broken) == 0 {
		return undeployed, nil
	}
	for _, c := range s.w.Containers() {
		if !broken[c.App] {
			continue
		}
		m := s.r.asg[c.Ord]
		if m == topology.Invalid {
			continue
		}
		if err := s.r.unplace(c, m); err != nil {
			return nil, s.r.corrupt("gang rollback", err)
		}
		undeployed = s.strand(undeployed, c)
	}
	return undeployed, nil
}

// consolidate empties lightly-loaded machines by migrating every
// container they host into existing used machines.  A machine is only
// drained when every container relocates successfully; otherwise the
// drain rolls back.  Consolidation never opens an empty machine, so
// each successful drain strictly reduces the used-machine count.
func (r *run) consolidate() error {
	_, _, err := r.consolidateBudget(0)
	return err
}

// consolidateBudget is consolidate with a per-call move cap: at most
// budget containers relocate (0 = unlimited).  A drain is
// all-or-nothing, so a machine is attempted only when its entire
// resident set fits inside the remaining budget; machines skipped for
// budget set more=true so the caller can resume with a later call.
// Drains are deterministic in cluster state, so a resumed call
// re-ranks the surviving machines and picks up where this one
// stopped.  more may be conservatively true (a skipped machine could
// turn out undrainable), never falsely false.
func (r *run) consolidateBudget(budget int) (moves int, more bool, err error) {
	// Drains are deterministic in cluster/blacklist/flow state, and a
	// failed drain rolls back exactly, so state advances only when a
	// drain succeeds.  epoch counts successes; a machine whose drain
	// failed at the current epoch would fail identically if retried,
	// so later passes skip it until some drain lands.
	epoch := 0
	failedAt := make(map[topology.MachineID]int)
	memo := make(map[classKey]topology.MachineID)
	for pass := 0; pass < 2; pass++ {
		// Lightest machines first: cheapest to drain.
		type lm struct {
			m    topology.MachineID
			used int64
		}
		var light []lm
		for _, m := range r.cluster.Machines() {
			if m.NumContainers() == 0 {
				continue
			}
			// A down machine mid-eviction is the failure path's to
			// empty; draining it here would make rollback (re-placing
			// onto the down machine) impossible.
			if !m.Up() {
				continue
			}
			light = append(light, lm{m: m.ID, used: m.Used().Dim(resource.CPU)})
		}
		sort.Slice(light, func(i, j int) bool {
			if light[i].used != light[j].used {
				return light[i].used < light[j].used
			}
			return light[i].m < light[j].m
		})
		drained := false
		for _, cand := range light {
			if e, ok := failedAt[cand.m]; ok && e == epoch {
				continue
			}
			n := r.cluster.Machine(cand.m).NumContainers()
			if budget > 0 && moves+n > budget {
				// Signal More only when the drain could plausibly land:
				// without this check a fully-consolidated cluster whose
				// last machine exceeds the budget would report pending
				// work forever, spinning any resume loop built on More.
				if r.drainCouldFit(cand.m) {
					more = true
				}
				continue
			}
			// The memo shares feasibility prechecks across attempts: it
			// too stays valid until the next successful drain.
			if ok, derr := r.drain(cand.m, memo); derr != nil {
				return moves, more, derr
			} else if ok {
				moves += n
				drained = true
				epoch++
				clear(memo)
			} else {
				failedAt[cand.m] = epoch
			}
		}
		if !drained {
			return moves, more, nil
		}
	}
	return moves, more, nil
}

// drainCouldFit is the budget-skip analogue of drain's feasibility
// precheck: residents can only relocate onto other used machines
// (consolidation never opens an empty one), so when their combined
// demand exceeds the free capacity there, the drain is infeasible
// whatever the budget and the skip must not promise future work.
func (r *run) drainCouldFit(m topology.MachineID) bool {
	used := r.cluster.Machine(m).Used()
	var free resource.Vector
	for _, o := range r.cluster.Machines() {
		if o.ID == m || !o.Up() || o.NumContainers() == 0 {
			continue
		}
		free = free.Add(o.Free())
	}
	return used.Fits(free)
}

// classKey classifies a container for memoised searches (the drain
// feasibility precheck, the rescue relocation memo): two containers
// of the same app with the same demand see identical search outcomes,
// so one lookup answers for the whole class.
type classKey struct {
	app    int
	demand resource.Vector
}

// drain attempts to move every container off machine m into other
// used machines; returns whether the machine was emptied.  A non-nil
// error means a rollback or restore step itself failed and the
// scheduler state is corrupt.
func (r *run) drain(m topology.MachineID, memo map[classKey]topology.MachineID) (bool, error) {
	machine := r.cluster.Machine(m)
	all := r.w.Containers()
	if machine.NumContainers() != len(r.residents[m]) {
		return false, nil // unknown residents present: not movable
	}
	cs := make([]*workload.Container, 0, len(r.residents[m]))
	for _, ord := range r.residents[m] {
		cs = append(cs, all[ord])
	}
	if len(cs) == 0 {
		return false, nil
	}
	// Exact feasibility precheck.  Moves within a drain only shrink
	// free space and grow blacklists on candidate destinations (m
	// itself is excluded and skipEmpty freezes the used-machine set),
	// so a resident with no feasible destination now cannot gain one
	// mid-drain.  Bailing out here skips the move+rollback churn for
	// machines that can never be emptied — the common case once the
	// cluster is packed.  The memo caches the unexcluded search per
	// (app, demand) class: a destination other than m itself proves
	// feasibility for this drain too, and an Invalid result rules the
	// class out everywhere until the next successful drain.
	for _, c := range cs {
		key := classKey{app: int(r.search.refOf(c)), demand: c.Demand}
		dest, ok := memo[key]
		if !ok {
			dest = r.search.findMachine(c, exclusion{skipEmpty: true})
			memo[key] = dest
		}
		if dest == topology.Invalid {
			return false, nil
		}
		if dest == m {
			// The memoised destination is the machine being drained;
			// only an exact per-machine search can settle this class.
			if r.search.findMachine(c, exclusion{machine: m, skipEmpty: true}) == topology.Invalid {
				return false, nil
			}
		}
	}
	// Every search below excludes m, and each move (and any rollback)
	// mutates it, so batch m's per-move index pull chains into a
	// single final write (no-op in eager modes; see
	// searcher.deferUpdates for the monotonicity argument).
	r.search.deferUpdates(m)
	defer r.search.resumeUpdates()
	type move struct {
		c  *workload.Container
		to topology.MachineID
	}
	var done []move
	rollback := func() error {
		for i := len(done) - 1; i >= 0; i-- {
			mv := done[i]
			if err := r.unplace(mv.c, mv.to); err != nil {
				return r.corrupt("drain rollback unplace", err)
			}
			if err := r.place(mv.c, m); err != nil {
				return r.corrupt("drain rollback replace", err)
			}
		}
		return nil
	}
	for _, c := range cs {
		if err := r.unplace(c, m); err != nil {
			return false, rollback()
		}
		dest := r.search.findMachine(c, exclusion{machine: m, skipEmpty: true})
		if dest == topology.Invalid {
			if err := r.place(c, m); err != nil {
				return false, r.corrupt("drain restore", err)
			}
			return false, rollback()
		}
		if err := r.place(c, dest); err != nil {
			if perr := r.place(c, m); perr != nil {
				return false, r.corrupt("drain restore after failed move", perr)
			}
			return false, rollback()
		}
		done = append(done, move{c: c, to: dest})
	}
	r.consolidations += len(done)
	r.met.consolidations.Add(int64(len(done)))
	for _, mv := range done {
		r.trc.Emit(obs.Event{Kind: obs.EvMigrate, Victim: mv.c.ID, Machine: int64(mv.to), Detail: "drain"})
	}
	return true, nil
}

// tryDefrag clears resource fragmentation (Fig. 7): when a container
// fits no machine's free space but does fit some machine's capacity,
// migrate the smallest containers off such a machine until the
// demand fits.  This is the "rescheduling incurs a cost ... bound to
// the worst complexity" mechanism of §IV.D.  Its latency lands in the
// migration histogram: defragmentation is the same relocate-to-admit
// rescue, differing only in what blocks the claimant.
func (r *run) tryDefrag(c *workload.Container) (bool, error) {
	if !r.met.on {
		return r.tryDefragInner(c)
	}
	start := r.opts.now()
	ok, err := r.tryDefragInner(c)
	r.met.migLat.Observe(r.opts.now().Sub(start).Microseconds())
	return ok, err
}

func (r *run) tryDefragInner(c *workload.Container) (bool, error) {
	ref := r.search.refOf(c)
	sc := &r.rescue
	sc.top.reset(maxDefragAttempts)
	for _, m := range r.cluster.Machines() {
		if !m.Up() || !c.Demand.Fits(m.Capacity()) {
			continue
		}
		// Most free space first: fewest containers to move.  The rank
		// cut-off is two integer compares, so it runs before the
		// blacklist probe; once the selection is full almost every
		// machine stops there.
		e := rankEntry{key: -m.Free().Dim(resource.CPU), m: m.ID}
		if sc.top.admits(e) && r.blacklist.AllowsRef(m.ID, ref) {
			sc.top.offer(e)
		}
	}
	clear(sc.memo)
	for _, e := range sc.top.e[:sc.top.n] {
		if ok, err := r.defragInto(e.m, c, ref); err != nil {
			return false, err
		} else if ok {
			return true, nil
		}
	}
	return false, nil
}

// defragInto moves the smallest containers off machine m until c
// fits, then places c; everything rolls back on failure.  A non-nil
// error means a rollback or restore step itself failed and the
// scheduler state is corrupt.
func (r *run) defragInto(m topology.MachineID, c *workload.Container, ref constraint.AppRef) (bool, error) {
	machine := r.cluster.Machine(m)
	// Choose movers: smallest CPU first, skip nothing else — the
	// relocation search enforces their constraints at the new homes.
	// Unknown pre-placed residents are simply immovable furniture.
	all := r.w.Containers()
	sc := &r.rescue
	sc.movers = sc.movers[:0]
	for _, ord := range r.residents[m] {
		sc.movers = append(sc.movers, all[ord])
	}
	sortMovers(sc.movers)
	sc.done = sc.done[:0]
	maxMoves := 4
	if rem := r.movesRemaining(); rem < maxMoves {
		maxMoves = rem // rescue-move budget binds tighter
	}
	for _, mv := range sc.movers {
		if c.Demand.Fits(machine.Free()) {
			break
		}
		if len(sc.done) >= maxMoves {
			break
		}
		if err := r.unplace(mv, m); err != nil {
			return false, r.undoMoves("defrag")
		}
		dest := r.relocationFor(mv, m)
		if dest == topology.Invalid {
			if err := r.place(mv, m); err != nil {
				return false, r.corrupt("defrag restore", err)
			}
			continue // try the next mover
		}
		if err := r.place(mv, dest); err != nil {
			if perr := r.place(mv, m); perr != nil {
				return false, r.corrupt("defrag restore after failed move", perr)
			}
			continue
		}
		sc.done = append(sc.done, rescueMove{c: mv, from: m, to: dest})
	}
	if !c.Demand.Fits(machine.Free()) || !r.blacklist.AllowsRef(m, ref) {
		return false, r.undoMoves("defrag")
	}
	if err := r.place(c, m); err != nil {
		return false, r.undoMoves("defrag")
	}
	r.commitMoves(c, "defrag")
	return true, nil
}

// sortMovers orders defragmentation's movers smallest CPU first, ties
// by container ID.  Insertion sort: a machine's resident list is short.
func sortMovers(ms []*workload.Container) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0; j-- {
			a, b := ms[j-1], ms[j]
			da, db := a.Demand.Dim(resource.CPU), b.Demand.Dim(resource.CPU)
			if da < db || (da == db && a.ID < b.ID) {
				break
			}
			ms[j-1], ms[j] = b, a
		}
	}
}

// tryPreemption evicts strictly-lower-priority containers to free
// resources for c (§III.B: weighted flows mean a high-priority
// container's placement dominates; the evicted victims re-queue).
// Returns the victims to requeue and whether preemption succeeded; a
// non-nil error means an eviction or restore step failed and the
// scheduler state is corrupt.  The victims slice is run scratch, valid
// until the next tryPreemption: callers copy it into their queue.
func (r *run) tryPreemption(c *workload.Container) ([]*workload.Container, bool, error) {
	if !r.met.on {
		return r.tryPreemptionInner(c)
	}
	start := r.opts.now()
	victims, ok, err := r.tryPreemptionInner(c)
	r.met.preLat.Observe(r.opts.now().Sub(start).Microseconds())
	return victims, ok, err
}

func (r *run) tryPreemptionInner(c *workload.Container) ([]*workload.Container, bool, error) {
	if !r.opts.DisableWeights && c.Priority <= workload.PriorityLow {
		return nil, false, nil
	}
	ref := r.search.refOf(c)
	for _, gname := range r.cluster.SubClusters() {
		for _, rname := range r.cluster.SubCluster(gname).Racks {
			for _, mid := range r.cluster.Rack(rname).Machines {
				machine := r.cluster.Machine(mid)
				if !machine.Up() || !c.Demand.Fits(machine.Capacity()) || !r.blacklist.AllowsRef(mid, ref) {
					continue
				}
				victims, ok := r.pickVictims(mid, c)
				if !ok || len(victims) > r.movesRemaining() {
					continue // no evictable set, or over the rescue-move budget
				}
				return r.evict(victims, mid, c)
			}
		}
	}
	return nil, false, nil
}

// evict displaces the chosen victims from machine m and places c
// there, recording each eviction for the auditor.
func (r *run) evict(victims []*workload.Container, m topology.MachineID, c *workload.Container) ([]*workload.Container, bool, error) {
	for _, v := range victims {
		if err := r.unplace(v, m); err != nil {
			return nil, false, r.corrupt("preemption evict", err)
		}
		r.preemptLog = append(r.preemptLog, preemptEvent{claimant: c, victim: v, machine: m})
		r.requeues[v.Ord]++
		if v.Priority >= c.Priority {
			// Only reachable with DisableWeights: a priority inversion
			// the weighted flow would have prevented.
			r.inversions = append(r.inversions, constraint.Violation{
				Kind: constraint.PriorityInversion, Machine: m,
				ContainerA: c.ID, ContainerB: v.ID,
			})
		}
	}
	if err := r.place(c, m); err != nil {
		// Should not happen: we just freed enough.
		for _, v := range victims {
			if perr := r.place(v, m); perr != nil {
				return nil, false, r.corrupt("preemption restore victim", perr)
			}
		}
		return nil, false, nil
	}
	r.preempts += len(victims)
	r.met.preemptions.Add(int64(len(victims)))
	for _, v := range victims {
		r.trc.Emit(obs.Event{Kind: obs.EvPreempt, Container: c.ID, Victim: v.ID, Machine: int64(m)})
	}
	return victims, true, nil
}

// pickVictims chooses the smallest set of strictly-lower-priority
// containers on machine m whose eviction makes c fit and that all have
// requeue budget left; ok is false when no such set exists.  The
// blacklist check already passed, so only resources matter here.  The
// set aliases run scratch and may be empty (c fits as things stand).
func (r *run) pickVictims(m topology.MachineID, c *workload.Container) (victims []*workload.Container, ok bool) {
	free := r.cluster.Machine(m).Free()
	lower := r.rescue.victims[:0]
	if c.Demand.Fits(free) {
		// No preemption needed; caller's direct search should have
		// found it, but state may have changed.
		return lower, true
	}
	cs := r.w.Containers()
	for _, ord := range r.residents[m] {
		other := cs[ord]
		// The weighted flow w_k·f (Equation 9) decides who may evict
		// whom: a container may only displace one with strictly
		// smaller weighted flow.  With a verified ladder this is
		// exactly "strictly lower priority"; the DisableWeights
		// ablation compares raw flows and so permits inversions.
		if r.evictable(other, c) {
			lower = append(lower, other)
		}
	}
	r.rescue.victims = lower
	// Evict lowest priority first, largest demand first within a
	// class, until c fits; the chosen set is a prefix of that order.
	sortVictims(lower)
	for i, v := range lower {
		if r.requeues[v.Ord] >= r.opts.maxRequeues() {
			return nil, false
		}
		free = free.Add(v.Demand)
		if c.Demand.Fits(free) {
			return lower[:i+1], true
		}
	}
	return nil, false
}

// evictable reports whether victim may be displaced by claimant under
// the flow-weighting rule.
func (r *run) evictable(victim, claimant *workload.Container) bool {
	if r.opts.DisableWeights {
		// Unweighted flows: a bigger raw flow wins regardless of
		// priority — the broken behaviour of Fig. 3a.
		return flowUnits(victim) < flowUnits(claimant)
	}
	return r.ladder.WeightedFlow(victim) < r.ladder.WeightedFlow(claimant) &&
		victim.Priority < claimant.Priority
}

func sortVictims(vs []*workload.Container) {
	// Insertion sort: victim lists are tiny.
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0; j-- {
			a, b := vs[j-1], vs[j]
			if a.Priority < b.Priority {
				break
			}
			if a.Priority == b.Priority && !b.Demand.Dominates(a.Demand) {
				break
			}
			vs[j-1], vs[j] = b, a
		}
	}
}
