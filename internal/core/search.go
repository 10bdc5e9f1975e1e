package core

import (
	"fmt"

	"aladdin/internal/constraint"
	"aladdin/internal/parallel"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// aggregates caches, per rack and per sub-cluster, the component-wise
// maximum free vector over member machines.  They realise the R and G
// tiers' residual capacities: if a demand does not fit a rack's
// maximum free vector, no path through that rack exists and the whole
// subtree is pruned — the latency win of the tiered network (§III.A).
//
// Maintenance is incremental: a machine update touches one leaf of
// the capacity index and re-reads the owning rack's and sub-cluster's
// range maxima, O(log machines) total, instead of recomputing the
// whole rack.  A periodic full rebuild (the safety valve) resyncs the
// index from live machine state, and DebugChecks cross-checks every
// incremental result against the naive recompute.
type aggregates struct {
	cluster     *topology.Cluster
	idx         *capIndex
	rackMaxFree map[string]resource.Vector
	subMaxFree  map[string]resource.Vector

	// subNames is the sub-cluster sweep order (creation order): shard
	// i of the parallel search owns subNames[i]'s traversal span.
	subNames []string

	// eager selects per-update map maintenance.  The indexed search
	// answers rack/sub admission straight from the tree, so unless the
	// naive scan (which probes rackAdmits per rack per container) or
	// DebugChecks needs them fresh, the name-keyed maps are refreshed
	// lazily on first read after a batch of updates.
	eager bool
	dirty bool

	// naive restores the pre-index maintenance for Options.NaiveSearch:
	// a machine update recomputes its whole rack (and the rack's
	// sub-cluster) from machine state.  The A/B baseline must not
	// inherit the index's O(log) maintenance, or the comparison only
	// measures the scan.
	naive bool

	debugCheck bool
	updates    int
}

// defaultRebuildEvery is the safety-valve period: after this many
// incremental updates the index and aggregates are rebuilt from
// machine state, bounding any drift to one window.
const defaultRebuildEvery = 1 << 15

func newAggregates(cluster *topology.Cluster, opts Options) *aggregates {
	a := &aggregates{
		cluster:     cluster,
		idx:         newCapIndex(cluster),
		rackMaxFree: make(map[string]resource.Vector, len(cluster.Racks())),
		subMaxFree:  make(map[string]resource.Vector, len(cluster.SubClusters())),
		subNames:    cluster.SubClusters(),
		eager:       opts.NaiveSearch || opts.DebugChecks,
		naive:       opts.NaiveSearch,
		debugCheck:  opts.DebugChecks,
	}
	a.recomputeAll()
	return a
}

// recomputeAll derives every rack and sub-cluster aggregate from the
// index.
func (a *aggregates) recomputeAll() {
	for _, rname := range a.cluster.Racks() {
		a.rackMaxFree[rname] = a.idx.rangeMaxFree(a.idx.tr.RackSpan[rname])
	}
	for _, gname := range a.subNames {
		a.subMaxFree[gname] = a.idx.rangeMaxFree(a.idx.tr.SubSpan[gname])
	}
}

// naiveRackMaxFree is the ground-truth recompute: the component-wise
// max over the rack's up machines, read directly from machine state.
// Down machines contribute nothing, matching the index's empty-leaf
// treatment.
func (a *aggregates) naiveRackMaxFree(rname string) resource.Vector {
	rack := a.cluster.Rack(rname)
	var maxFree resource.Vector
	for _, mid := range rack.Machines {
		m := a.cluster.Machine(mid)
		if !m.Up() {
			continue
		}
		maxFree = maxFree.Max(m.Free())
	}
	return maxFree
}

// naiveSubMaxFree is the sub-cluster analogue, derived from the rack
// aggregates.
func (a *aggregates) naiveSubMaxFree(gname string) resource.Vector {
	sub := a.cluster.SubCluster(gname)
	var maxFree resource.Vector
	for _, rname := range sub.Racks {
		maxFree = maxFree.Max(a.rackMaxFree[rname])
	}
	return maxFree
}

// update refreshes aggregates after machine m's free vector changed.
func (a *aggregates) update(m topology.MachineID) {
	a.updates++
	if a.naive {
		// Pre-index baseline: recompute the owning rack and sub-cluster
		// aggregates in full from machine state.  The index is not
		// maintained (nothing reads it in naive mode).
		machine := a.cluster.Machine(m)
		a.rackMaxFree[machine.Rack] = a.naiveRackMaxFree(machine.Rack)
		a.subMaxFree[machine.Cluster] = a.naiveSubMaxFree(machine.Cluster)
		return
	}
	if a.updates%defaultRebuildEvery == 0 {
		// Safety valve: resync everything from live machine state.
		a.idx.rebuild()
		if a.eager {
			a.recomputeAll()
		} else {
			a.dirty = true
		}
		return
	}
	a.idx.update(m)
	if !a.eager {
		a.dirty = true
		return
	}
	machine := a.cluster.Machine(m)
	a.rackMaxFree[machine.Rack] = a.idx.rangeMaxFree(a.idx.tr.RackSpan[machine.Rack])
	a.subMaxFree[machine.Cluster] = a.idx.rangeMaxFree(a.idx.tr.SubSpan[machine.Cluster])
	if a.debugCheck {
		a.crossCheck(machine.Rack, machine.Cluster)
	}
}

// refresh brings the name-keyed maps up to date before a read in lazy
// mode.
func (a *aggregates) refresh() {
	if a.dirty {
		a.recomputeAll()
		a.dirty = false
	}
}

// crossCheck validates the incremental aggregates against the naive
// recompute; a mismatch is an index-maintenance bug and panics.  The
// panics are deliberate: crossCheck only runs under Options.DebugChecks
// (a test-only oracle, never a serving configuration), and an
// aggregate-drift bug has no runtime recovery.
//
//aladdin:nondeterministic-ok test-only debug oracle; panic is the point
func (a *aggregates) crossCheck(rname, gname string) {
	if want := a.naiveRackMaxFree(rname); a.rackMaxFree[rname] != want {
		panic(fmt.Sprintf("core: aggregate drift on rack %s: incremental %s, naive %s", rname, a.rackMaxFree[rname], want))
	}
	if want := a.naiveSubMaxFree(gname); a.subMaxFree[gname] != want {
		panic(fmt.Sprintf("core: aggregate drift on sub-cluster %s: incremental %s, naive %s", gname, a.subMaxFree[gname], want))
	}
}

// rackAdmits reports whether some machine in the rack might fit the
// demand (conservative per-dimension check).
func (a *aggregates) rackAdmits(rname string, demand resource.Vector) bool {
	a.refresh()
	return demand.Fits(a.rackMaxFree[rname])
}

// subAdmits is the sub-cluster analogue.
func (a *aggregates) subAdmits(gname string, demand resource.Vector) bool {
	a.refresh()
	return demand.Fits(a.subMaxFree[gname])
}

// ilCache is the isomorphism-limiting memo (§IV.A, Fig. 5a): all
// containers of an application are isomorphic, so once one of them
// proves unplaceable — no valid path through the whole network, even
// after migration and defragmentation — its siblings cannot do better
// and skip the search outright.  An entry stays valid until any
// capacity is released (placements only shrink free space and grow
// blacklists, so they can never make an infeasible sibling feasible;
// releases can).
//
// Entries are a dense slice by app ordinal, not an ID-keyed map: the
// skip check runs once per queued container, and a slice read keeps
// it off the string-hashing path.  failed stores releaseGen+1 so the
// zero value means "never failed" and a fresh cache needs no fill.
type ilCache struct {
	// releaseGen counts capacity releases (unplace/evict).
	releaseGen uint64
	// failed[app] is releaseGen+1 at which the app was proven
	// unplaceable; 0 marks an app never proven unplaceable.
	failed []uint64
}

func newILCache(numApps int) *ilCache {
	return &ilCache{failed: make([]uint64, numApps)}
}

// bump invalidates all cached failures (some capacity was released).
func (il *ilCache) bump() { il.releaseGen++ }

// skip reports whether the app was already proven unplaceable at the
// current generation.
func (il *ilCache) skip(app constraint.AppRef) bool {
	return app >= 0 && int(app) < len(il.failed) && il.failed[app] == il.releaseGen+1
}

// note records that the app is unplaceable at the current generation.
func (il *ilCache) note(app constraint.AppRef) {
	if app >= 0 && int(app) < len(il.failed) {
		il.failed[app] = il.releaseGen + 1
	}
}

// valid reports whether the app's cached failure is live at the
// current generation — skip without the nil-app guard, for exports.
func (il *ilCache) valid(app int) bool {
	return il.failed[app] == il.releaseGen+1
}

// searcher walks the tiered network looking for an augmenting path
// for one container: the getShortestPath of Algorithm 1, with IL and
// DL as the paper's two break conditions (lines 23–29).  By default
// it runs over the residual-capacity index; Options.NaiveSearch
// restores the full linear scan, retained for A/B benchmarking and
// as the oracle the indexed search is validated against.
type searcher struct {
	opts      Options
	cluster   *topology.Cluster
	agg       *aggregates
	blacklist *constraint.Blacklist
	il        *ilCache

	// w is the workload universe; refs is the dense container-ordinal →
	// app-ordinal table, resolved once at construction so per-search
	// app resolution is a slice read shared by every container of a
	// batch instead of a per-container string-map probe.
	w *workload.Workload
	//aladdin:domain ord -> app container ordinal → IL/blacklist app ref
	refs []constraint.AppRef

	// met carries the run's instrument handles (assigned by newRun
	// after construction; the zero value is disabled).  findMachine
	// times itself and classifies its outcome through it.
	met coreMetrics

	// searchStats counts explored machine vertices, the "explored
	// paths" driver of placement latency (§IV.A).  The naive scan
	// counts every non-excluded machine in admitting racks; the
	// indexed search counts the candidates it actually visits (all of
	// which admit the demand on resources), so both remain faithful
	// effort counters for the IL/DL ablation.
	explored int64

	// hint resumes the unrestricted DL first-fit across consecutive
	// same-app searches.  All containers of an app are isomorphic, so
	// once a sibling's search has proven that every machine before
	// traversal position hintPos rejects the app's (demand, blacklist
	// ref), the next sibling's descent can start there — placements at
	// positions ≥ hintPos cannot change the prefix's rejections, and
	// any mutation before hintPos resets the hint (noteUpdate).
	hintApp constraint.AppRef
	hintPos int

	// deferred, when valid, names the one machine whose index
	// refreshes are being batched by a deferUpdates window (drain's
	// move loop); deferredDirty records whether any refresh was
	// actually skipped and owes a final write.
	deferred      topology.MachineID
	deferredDirty bool

	// Scratch state reused across searches so the steady-state hot
	// path performs zero heap allocations: the serial visitor structs
	// replace the per-call closures the pre-SoA layout allocated, and
	// the shard/fit buffers amortise the parallel sweep's staging.
	av      admitState
	fv      fitState
	fitsBuf []topology.MachineID

	shardStates   []admitState
	shardFitState []fitState
	shardBest     []bestFitState
	shardExplored []int64
	shardFits     [][]topology.MachineID
}

// newSearcher wires a searcher with fresh aggregates, index and IL
// state; shared by batch runs (scheduler.go) and sessions.
func newSearcher(opts Options, w *workload.Workload, cluster *topology.Cluster, blacklist *constraint.Blacklist) *searcher {
	s := &searcher{
		opts:      opts,
		cluster:   cluster,
		agg:       newAggregates(cluster, opts),
		blacklist: blacklist,
		il:        newILCache(w.NumApps()),
		w:         w,
		refs:      make([]constraint.AppRef, w.NumContainers()),
		hintApp:   constraint.NoApp,
		deferred:  topology.Invalid,
	}
	for _, c := range w.Containers() {
		s.refs[c.Ord] = constraint.AppRef(w.AppIndex(c.App))
	}
	nShards := len(s.agg.subNames)
	s.shardStates = make([]admitState, nShards)
	s.shardFitState = make([]fitState, nShards)
	s.shardBest = make([]bestFitState, nShards)
	s.shardExplored = make([]int64, nShards)
	s.shardFits = make([][]topology.MachineID, nShards)
	return s
}

// refOf resolves a container to its app ordinal: a slice read for
// workload containers, falling back to the blacklist's string lookup
// for probes outside the universe (search benchmarks).
func (s *searcher) refOf(c *workload.Container) constraint.AppRef {
	cs := s.w.Containers()
	if c.Ord >= 0 && c.Ord < len(cs) && cs[c.Ord] == c {
		return s.refs[c.Ord]
	}
	return s.blacklist.Ref(c.App)
}

// noteUpdate refreshes the index and aggregates after machine m
// changed.  A mutation inside the traversal prefix the sibling hint
// has skipped could make a previously rejecting machine admit again,
// so the hint is dropped; mutations at or after the hint cannot.
func (s *searcher) noteUpdate(m topology.MachineID) {
	if m == s.deferred {
		// Index refresh postponed (see deferUpdates); the lazy
		// name-keyed aggregates still need a recompute before their
		// next read.
		s.deferredDirty = true
		s.agg.dirty = true
	} else {
		s.agg.update(m)
	}
	if s.hintApp != constraint.NoApp && s.agg.idx.tr.Pos[m] < s.hintPos {
		s.hintApp = constraint.NoApp
	}
}

// deferUpdates suspends index refreshes for machine m until
// resumeUpdates.  Only legal while every search excludes m: a subtree
// maximum is monotone in its members' free vectors, so an understated
// stale entry for m can never prune a subtree that still holds some
// other admitting machine — the worst it can do is hide m itself,
// which the exclusion hides anyway.  Consolidation's drain uses this
// to collapse the per-move O(log n) pull chains for the machine being
// emptied (whose free vector changes on every move) into one final
// write.  Disabled in eager modes: their per-update cross-checks
// recompute neighbouring aggregates from live machine state and
// assume a fully live index.
func (s *searcher) deferUpdates(m topology.MachineID) {
	if s.agg.eager {
		return
	}
	s.deferred = m
	s.deferredDirty = false
}

// resumeUpdates ends a deferUpdates window, applying the machine's
// final state to the index if any refresh was skipped.
func (s *searcher) resumeUpdates() {
	m := s.deferred
	if m == topology.Invalid {
		return
	}
	s.deferred = topology.Invalid
	if s.deferredDirty {
		s.agg.update(m)
	}
}

// exclusion restricts a search: skip one machine (the one a blocker
// currently occupies), optionally an explicit set, and optionally all
// empty machines (consolidation must never open a new machine).
type exclusion struct {
	machine   topology.MachineID // Invalid when unused
	set       map[topology.MachineID]bool
	skipEmpty bool
}

var noExclusion = exclusion{machine: topology.Invalid}

func (e exclusion) excludes(m topology.MachineID) bool {
	if e.machine == m {
		return true
	}
	return e.set != nil && e.set[m]
}

// parallelSweepMinMachines gates the parallel sub-cluster sweep: on
// small clusters goroutine fan-out costs more than the scan it saves.
const parallelSweepMinMachines = 512

// sweepParallel reports whether exhaustive (no-DL / resource-fit)
// searches should shard per sub-cluster across workers.
func (s *searcher) sweepParallel() bool {
	return len(s.agg.subNames) > 1 && len(s.cluster.Machines()) >= parallelSweepMinMachines
}

// findMachine returns the machine chosen for the container, or
// Invalid when no feasible path exists.  With DL the first feasible
// machine wins (first-fit in tier order); without it the search
// exhausts the network and returns the best fit — minimum leftover
// CPU, ties broken by machine ID — which is what an un-truncated
// augmenting search converges to.
func (s *searcher) findMachine(c *workload.Container, excl exclusion) topology.MachineID {
	if !s.met.on {
		return s.findMachineInner(c, excl)
	}
	start := s.opts.now()
	m := s.findMachineInner(c, excl)
	s.met.searchLat.Observe(s.opts.now().Sub(start).Microseconds())
	if s.opts.NaiveSearch {
		s.met.searchNaive.Inc()
	} else {
		s.met.searchIndexed.Inc()
	}
	if s.opts.DepthLimiting && m != topology.Invalid {
		// DL truncated this search at the first feasible machine
		// instead of sweeping for the global best fit.
		s.met.dlCutoffs.Inc()
	}
	return m
}

func (s *searcher) findMachineInner(c *workload.Container, excl exclusion) topology.MachineID {
	if s.opts.NaiveSearch {
		return s.findMachineNaive(c, excl)
	}
	if s.opts.DepthLimiting {
		return s.firstFitIndexed(c, excl)
	}
	return s.bestFitSweep(c, excl)
}

// admitState is the leaf acceptance check shared by the indexed
// searches: exclusions, consolidation's no-empty-machines rule, a
// live resource-fit check and the blacklist.  The index already
// guarantees the fit on its own view; re-checking against live
// machine state gives the indexed search the same robustness to
// out-of-band cluster mutations (pre-placed residents) that the
// naive scan gets from checking machines directly.  It is a struct
// with a pointer-receiver visit method, not a closure: the serial
// searches reuse one instance held in the searcher's scratch, so the
// hot path allocates nothing.  The explored counter is a pointer so
// parallel shards can count without contending.
type admitState struct {
	s        *searcher
	demand   resource.Vector
	excl     exclusion
	ref      constraint.AppRef
	explored *int64
}

func (v *admitState) visit(mid topology.MachineID) bool {
	if v.excl.excludes(mid) {
		return false
	}
	*v.explored++
	m := v.s.cluster.Machine(mid)
	if v.excl.skipEmpty && m.NumContainers() == 0 {
		return false
	}
	if !m.Fits(v.demand) {
		return false
	}
	return v.s.blacklist.AllowsRef(mid, v.ref)
}

// admits reports whether machine mid would pass an unrestricted
// search's leaf check for (demand, ref) as things stand.
func (s *searcher) admits(mid topology.MachineID, demand resource.Vector, ref constraint.AppRef) bool {
	return s.cluster.Machine(mid).Fits(demand) && s.blacklist.AllowsRef(mid, ref)
}

// prefers reports whether findMachine, with both a and b admitting,
// returns a rather than b: the earlier machine in tier-traversal
// order under DL's first-fit, the smaller (free CPU, machine ID)
// under the exhaustive best-fit — leftover CPU after one demand
// orders machines as free CPU does.
func (s *searcher) prefers(a, b topology.MachineID) bool {
	if s.opts.DepthLimiting {
		return s.agg.idx.tr.Pos[a] < s.agg.idx.tr.Pos[b]
	}
	fa := s.cluster.Machine(a).Free().Dim(resource.CPU)
	fb := s.cluster.Machine(b).Free().Dim(resource.CPU)
	return fa < fb || (fa == fb && a < b)
}

// fitState is admitState without the blacklist: resource-only
// admission for migration's candidate enumeration.
type fitState struct {
	s        *searcher
	demand   resource.Vector
	excl     exclusion
	explored *int64
}

func (v *fitState) visit(mid topology.MachineID) bool {
	if v.excl.excludes(mid) {
		return false
	}
	*v.explored++
	m := v.s.cluster.Machine(mid)
	if v.excl.skipEmpty && m.NumContainers() == 0 {
		return false
	}
	return m.Fits(v.demand)
}

// firstFitIndexed is the DL search over the index: the first machine
// in tier-traversal order that admits the container, found without
// visiting non-admitting subtrees.  Unrestricted searches resume from
// the sibling hint when the app matches.
func (s *searcher) firstFitIndexed(c *workload.Container, excl exclusion) topology.MachineID {
	idx := s.agg.idx
	span := idx.all()
	ref := s.refOf(c)
	hintable := excl.machine == topology.Invalid && excl.set == nil &&
		!excl.skipEmpty && ref != constraint.NoApp
	if hintable && ref == s.hintApp {
		span.Lo = s.hintPos
	}
	s.av = admitState{s: s, demand: c.Demand, excl: excl, ref: ref, explored: &s.explored}
	got := idx.firstFit(span, c.Demand, excl.skipEmpty, &s.av)
	if hintable {
		s.hintApp = ref
		if got != topology.Invalid {
			s.hintPos = idx.tr.Pos[got]
		} else {
			// The whole remaining suffix rejects too; siblings can skip
			// the scan outright until some prefix machine changes.
			s.hintPos = len(idx.tr.Order)
		}
	}
	return got
}

// bestFitSweep is the no-DL search over the index: a per-sub-cluster
// branch-and-bound, fanned out across workers on large clusters and
// merged deterministically — the incumbent order is (leftover CPU,
// machine ID), so the result is identical to the serial scan for any
// -cpu setting.
func (s *searcher) bestFitSweep(c *workload.Container, excl exclusion) topology.MachineID {
	idx := s.agg.idx
	ref := s.refOf(c)
	if !s.sweepParallel() {
		st := newBestFitState()
		s.av = admitState{s: s, demand: c.Demand, excl: excl, ref: ref, explored: &s.explored}
		idx.bestFit(idx.all(), c.Demand, excl.skipEmpty, &s.av, &st)
		return st.id
	}
	for i := range s.shardExplored {
		s.shardExplored[i] = 0
	}
	//aladdin:hotalloc-ok one closure per parallel sweep, amortized over the whole sub-cluster fan-out; the serial path above is the allocguard-measured steady state
	parallel.ForEach(len(s.agg.subNames), 0, func(i int) {
		span := idx.tr.SubSpan[s.agg.subNames[i]]
		st := newBestFitState()
		s.shardStates[i] = admitState{s: s, demand: c.Demand, excl: excl, ref: ref, explored: &s.shardExplored[i]}
		idx.bestFit(span, c.Demand, excl.skipEmpty, &s.shardStates[i], &st)
		s.shardBest[i] = st
	})
	best := newBestFitState()
	for i := range s.shardBest {
		s.explored += s.shardExplored[i]
		best.merge(s.shardBest[i])
	}
	return best.id
}

// findMachineNaive is the retained full linear scan: every
// sub-cluster → rack → machine in tier order, pruned only by the
// rack/sub-cluster aggregates.
func (s *searcher) findMachineNaive(c *workload.Container, excl exclusion) topology.MachineID {
	ref := s.refOf(c)
	best := topology.Invalid
	var bestLeft int64 = 1<<62 - 1
	for _, gname := range s.cluster.SubClusters() {
		if !s.agg.subAdmits(gname, c.Demand) {
			continue
		}
		for _, rname := range s.cluster.SubCluster(gname).Racks {
			if !s.agg.rackAdmits(rname, c.Demand) {
				continue
			}
			for _, mid := range s.cluster.Rack(rname).Machines {
				if excl.excludes(mid) {
					continue
				}
				s.explored++
				m := s.cluster.Machine(mid)
				if excl.skipEmpty && m.NumContainers() == 0 {
					continue
				}
				if !m.Fits(c.Demand) {
					continue
				}
				if !s.blacklist.AllowsRef(mid, ref) {
					continue
				}
				if s.opts.DepthLimiting {
					// DL: a valid path saturates the container's
					// impartible flow; stop searching (Fig. 5b).
					return mid
				}
				left := m.Free().Sub(c.Demand).Dim(resource.CPU)
				// Explicit tie-break (leftover CPU, then machine ID)
				// so the parallel indexed sweep provably matches the
				// serial scan.
				if left < bestLeft || (left == bestLeft && mid < best) {
					best, bestLeft = mid, left
				}
			}
		}
	}
	return best
}

// findResourceFits is findMachine ignoring blacklists: used by
// migration to locate machines where only anti-affinity blocks the
// container.  Results are in tier-traversal order, truncated at
// limit (≤ 0 = unlimited).  The returned slice aliases the
// searcher's reusable buffer and stays valid only until the next
// findResourceFits call.
func (s *searcher) findResourceFits(c *workload.Container, excl exclusion, limit int) []topology.MachineID {
	if s.opts.NaiveSearch {
		return s.findResourceFitsNaive(c, excl, limit)
	}
	idx := s.agg.idx
	s.fitsBuf = s.fitsBuf[:0]
	if !s.sweepParallel() {
		s.fv = fitState{s: s, demand: c.Demand, excl: excl, explored: &s.explored}
		idx.collectFits(idx.all(), c.Demand, excl.skipEmpty, &s.fv, limit, &s.fitsBuf)
		return s.fitsBuf
	}
	// Sharded per sub-cluster; each shard collects up to the full
	// limit (any single shard may end up supplying every survivor),
	// then shards merge in sub-cluster order so the concatenation is
	// exactly the serial traversal order, truncated at limit.
	for i := range s.shardExplored {
		s.shardExplored[i] = 0
		s.shardFits[i] = s.shardFits[i][:0]
	}
	//aladdin:hotalloc-ok one closure per migration rescue's candidate sweep, amortized over the sub-cluster fan-out; small clusters take the serial path above
	parallel.ForEach(len(s.agg.subNames), 0, func(i int) {
		span := idx.tr.SubSpan[s.agg.subNames[i]]
		s.shardFitState[i] = fitState{s: s, demand: c.Demand, excl: excl, explored: &s.shardExplored[i]}
		idx.collectFits(span, c.Demand, excl.skipEmpty, &s.shardFitState[i], limit, &s.shardFits[i])
	})
	for i, shard := range s.shardFits {
		s.explored += s.shardExplored[i]
		for _, mid := range shard {
			if limit > 0 && len(s.fitsBuf) >= limit {
				continue
			}
			s.fitsBuf = append(s.fitsBuf, mid)
		}
	}
	return s.fitsBuf
}

// findResourceFitsNaive is the retained linear enumeration.
func (s *searcher) findResourceFitsNaive(c *workload.Container, excl exclusion, limit int) []topology.MachineID {
	s.fitsBuf = s.fitsBuf[:0]
	for _, gname := range s.cluster.SubClusters() {
		if !s.agg.subAdmits(gname, c.Demand) {
			continue
		}
		for _, rname := range s.cluster.SubCluster(gname).Racks {
			if !s.agg.rackAdmits(rname, c.Demand) {
				continue
			}
			for _, mid := range s.cluster.Rack(rname).Machines {
				if excl.excludes(mid) {
					continue
				}
				s.explored++
				m := s.cluster.Machine(mid)
				if excl.skipEmpty && m.NumContainers() == 0 {
					continue
				}
				if !m.Fits(c.Demand) {
					continue
				}
				s.fitsBuf = append(s.fitsBuf, mid)
				if limit > 0 && len(s.fitsBuf) >= limit {
					return s.fitsBuf
				}
			}
		}
	}
	return s.fitsBuf
}
