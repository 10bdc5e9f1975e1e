package core

import (
	"reflect"
	"testing"

	"aladdin/internal/obs"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

// appBatches splits the workload into per-app batches in app order —
// the batch boundaries a warm restart must preserve, because
// preemption victims requeue behind the current batch's tail.
func appBatches(w *workload.Workload) [][]*workload.Container {
	var out [][]*workload.Container
	for _, a := range w.Apps() {
		out = append(out, appContainers(w, a.ID))
	}
	return out
}

// assertSameSessionState fails the test unless both sessions hold an
// identical assignment, undeployed ledger and requeue ledger, and
// both pass the invariant audit.
func assertSameSessionState(t *testing.T, want, got *Session) {
	t.Helper()
	ws, gs := want.ExportState(), got.ExportState()
	if !reflect.DeepEqual(ws.Assignment, gs.Assignment) {
		t.Fatalf("assignments diverge:\n never-restarted: %v\n restored: %v", ws.Assignment, gs.Assignment)
	}
	if !reflect.DeepEqual(ws.Undeployed, gs.Undeployed) {
		t.Fatalf("undeployed ledgers diverge:\n never-restarted: %v\n restored: %v", ws.Undeployed, gs.Undeployed)
	}
	if !reflect.DeepEqual(ws.Requeues, gs.Requeues) {
		t.Fatalf("requeue ledgers diverge:\n never-restarted: %v\n restored: %v", ws.Requeues, gs.Requeues)
	}
	if vs := want.AuditInvariants(); len(vs) != 0 {
		t.Fatalf("never-restarted session violations: %v", vs)
	}
	if vs := got.AuditInvariants(); len(vs) != 0 {
		t.Fatalf("restored session violations: %v", vs)
	}
	if err := got.FlowConservation(); err != nil {
		t.Fatalf("restored session flow conservation: %v", err)
	}
}

// TestRestoreSessionEquivalence is the tentpole proof: checkpoint a
// session mid-trace, restore it into a fresh Session, replay the
// remaining batches on both, and require byte-identical outcomes.
func TestRestoreSessionEquivalence(t *testing.T) {
	w := trace.MustGenerate(trace.Scaled(7, 300))
	batches := appBatches(w)
	split := len(batches) / 2

	ref := NewSession(DefaultOptions(), w, smallCluster(48))
	for _, b := range batches {
		if _, err := ref.Place(b); err != nil {
			t.Fatal(err)
		}
	}

	warm := NewSession(DefaultOptions(), w, smallCluster(48))
	for _, b := range batches[:split] {
		if _, err := warm.Place(b); err != nil {
			t.Fatal(err)
		}
	}
	st := warm.ExportState()
	fresh, err := topology.FromSpecs(warm.Cluster().Specs())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(DefaultOptions(), w, fresh, st)
	if err != nil {
		t.Fatal(err)
	}
	// Restored state matches the captured state before any new work.
	if !reflect.DeepEqual(restored.ExportState(), st) {
		t.Fatal("restored state differs from captured state")
	}
	for _, b := range batches[split:] {
		if _, err := restored.Place(b); err != nil {
			t.Fatal(err)
		}
	}
	assertSameSessionState(t, ref, restored)
}

// TestRestoreSessionEquivalenceWithFailures checkpoints while failed
// machines are live (down at capture), restores, then recovers on
// both timelines and keeps scheduling — outcomes must stay identical.
func TestRestoreSessionEquivalenceWithFailures(t *testing.T) {
	w := trace.MustGenerate(trace.Scaled(11, 300))
	batches := appBatches(w)
	split := len(batches) / 2
	failed := []topology.MachineID{3, 17}

	run := func(restart bool) *Session {
		s := NewSession(DefaultOptions(), w, smallCluster(48))
		for _, b := range batches[:split] {
			if _, err := s.Place(b); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range failed {
			if _, err := s.FailMachine(id); err != nil {
				t.Fatal(err)
			}
		}
		if restart {
			st := s.ExportState()
			fresh, err := topology.FromSpecs(s.Cluster().Specs())
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range failed {
				if fresh.Machine(id).Up() {
					t.Fatalf("machine %d should restore down", id)
				}
			}
			s, err = RestoreSession(DefaultOptions(), w, fresh, st)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range batches[split : split+len(batches[split:])/2] {
			if _, err := s.Place(b); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range failed {
			if _, err := s.RecoverMachine(id); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range batches[split+len(batches[split:])/2:] {
			if _, err := s.Place(b); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	assertSameSessionState(t, run(false), run(true))
}

// TestExportStateCapturesRequeues forces a cross-batch preemption and
// verifies the consumed requeue budget survives a restore — without
// it, a restored session could preempt a victim past its budget.
func TestExportStateCapturesRequeues(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "hog", Demand: resource.Cores(12, 8192), Replicas: 1, Priority: workload.PriorityLow},
		{ID: "vip", Demand: resource.Cores(10, 8192), Replicas: 1, Priority: workload.PriorityHigh},
	})
	cl := topology.New(topology.Config{
		Machines: 1, MachinesPerRack: 1, RacksPerCluster: 1,
		Capacity: resource.Cores(16, 32*1024),
	})
	s := NewSession(DefaultOptions(), w, cl)
	if _, err := s.Place(appContainers(w, "hog")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(appContainers(w, "vip")); err != nil {
		t.Fatal(err)
	}
	st := s.ExportState()
	if st.Requeues["hog/0"] == 0 {
		t.Fatalf("preempted hog should have consumed requeue budget, got %v", st.Requeues)
	}
	if len(st.Undeployed) != 1 || st.Undeployed[0] != "hog/0" {
		t.Fatalf("undeployed = %v, want [hog/0]", st.Undeployed)
	}
	fresh, err := topology.FromSpecs(cl.Specs())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(DefaultOptions(), w, fresh, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.ExportState(), st) {
		t.Fatal("requeue ledger lost across restore")
	}
}

// TestRestoreSessionValidation: restore is strict for both session
// shapes — every malformed state below fails RestoreSession and
// RestoreSharded alike, through the validation they share.
func TestRestoreSessionValidation(t *testing.T) {
	w := sessionWorkload()
	good := func() *SessionState {
		return &SessionState{
			Assignment: map[string]topology.MachineID{"web/0": 0},
		}
	}
	fresh := func() *topology.Cluster { return shardCluster(16) }
	restores := map[string]func(*topology.Cluster, *SessionState) error{
		"Session": func(cl *topology.Cluster, st *SessionState) error {
			_, err := RestoreSession(DefaultOptions(), w, cl, st)
			return err
		},
		"Sharded": func(cl *topology.Cluster, st *SessionState) error {
			_, err := RestoreSharded(shardedOpts(2, false), w, cl, st)
			return err
		},
	}
	for shape, restore := range restores {
		if err := restore(fresh(), good()); err != nil {
			t.Errorf("%s: well-formed state rejected: %v", shape, err)
		}
		if err := restore(fresh(), nil); err == nil {
			t.Errorf("%s: nil state should fail", shape)
		}

		st := good()
		st.Assignment["web/0"] = 999
		if err := restore(fresh(), st); err == nil {
			t.Errorf("%s: unknown machine should fail", shape)
		}

		st = good()
		st.Assignment["ghost/0"] = 0
		if err := restore(fresh(), st); err == nil {
			t.Errorf("%s: unknown container should fail", shape)
		}

		st = good()
		cl := fresh()
		cl.Machine(0).MarkDown()
		if err := restore(cl, st); err == nil {
			t.Errorf("%s: placement on down machine should fail", shape)
		}

		st = good()
		st.Undeployed = []string{"web/0"}
		if err := restore(fresh(), st); err == nil {
			t.Errorf("%s: placed+undeployed overlap should fail", shape)
		}

		st = good()
		st.Undeployed = []string{"ghost/1"}
		if err := restore(fresh(), st); err == nil {
			t.Errorf("%s: unknown undeployed container should fail", shape)
		}

		st = good()
		st.Stranded = []string{"web/1"}
		if err := restore(fresh(), st); err == nil {
			t.Errorf("%s: stranded container outside the undeployed ledger should fail", shape)
		}

		st = good()
		st.Requeues = map[string]int{"web/1": -1}
		if err := restore(fresh(), st); err == nil {
			t.Errorf("%s: negative requeue count should fail", shape)
		}

		st = good()
		st.Requeues = map[string]int{"ghost/2": 1}
		if err := restore(fresh(), st); err == nil {
			t.Errorf("%s: unknown requeue container should fail", shape)
		}

		st = good()
		st.ILFailed = []string{"ghost"}
		if err := restore(fresh(), st); err == nil {
			t.Errorf("%s: unknown IL app should fail", shape)
		}
	}
}

// shardedMidTrace builds a 4-shard session and walks it through every
// kind of mutation — placements, departures, two machine failures, one
// recovery, a consolidation — stopping mid-trace with one machine still
// down.  It returns the session and the batches not yet submitted.
func shardedMidTrace(t *testing.T, w *workload.Workload) (*ShardedSession, [][]*workload.Container) {
	t.Helper()
	batches := appBatches(w)
	split := len(batches) / 2
	s := newSharded(t, shardedOpts(4, false), w, shardCluster(56))
	for _, b := range batches[:split] {
		if _, err := s.Place(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range batches[:split] {
		if c := b[0]; s.Placed(c.ID) && c.Ord%3 == 0 {
			if err := s.Remove(c.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range []topology.MachineID{2, 41} {
		if _, err := s.FailMachine(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RecoverMachine(41); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Consolidate(); err != nil {
		t.Fatal(err)
	}
	mustCleanSharded(t, s, 0, "mid-trace")
	return s, batches[split:]
}

// freshCopy rebuilds an empty cluster with the topology and down set of
// a live one — what a snapshot's machine list restores to.
func freshCopy(t *testing.T, cl *topology.Cluster) *topology.Cluster {
	t.Helper()
	fresh, err := topology.FromSpecs(cl.Specs())
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestShardedCheckpointRoundTrip: a sharded session's exported state
// restores into a sharded session that exports the same state, audits
// clean, and then schedules exactly as the never-restarted one does.
func TestShardedCheckpointRoundTrip(t *testing.T) {
	w := trace.MustGenerate(trace.Scaled(11, 300))
	ref, rest := shardedMidTrace(t, w)
	st := ref.ExportState()
	if len(st.Assignment) == 0 || len(st.Stranded) == 0 || len(st.Undeployed) == len(st.Stranded) || len(st.ILFailed) == 0 {
		t.Fatalf("fixture too easy: %d placed, %d undeployed, %d stranded, %d IL proofs",
			len(st.Assignment), len(st.Undeployed), len(st.Stranded), len(st.ILFailed))
	}

	restored, err := RestoreSharded(shardedOpts(4, false), w, freshCopy(t, ref.Cluster()), st)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("restored state differs from the captured one:\n captured: %+v\n restored: %+v", st, got)
	}
	mustCleanSharded(t, restored, 0, "restore")
	if restored.Cluster().Machine(2).Up() || !restored.Cluster().Machine(41).Up() {
		t.Fatal("down set not carried: machine 2 must restore down, machine 41 up")
	}

	for i, b := range rest {
		for _, s := range []*ShardedSession{ref, restored} {
			if _, err := s.Place(b); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(ref.Assignment(), restored.Assignment()) {
			t.Fatalf("batch %d: restored session diverged from the never-restarted one", i)
		}
	}
	for _, s := range []*ShardedSession{ref, restored} {
		if _, err := s.RecoverMachine(2); err != nil {
			t.Fatal(err)
		}
	}
	a, b := ref.ExportState(), restored.ExportState()
	if !reflect.DeepEqual(a.Assignment, b.Assignment) || !reflect.DeepEqual(a.Undeployed, b.Undeployed) ||
		!reflect.DeepEqual(a.Stranded, b.Stranded) {
		t.Fatal("restored session diverged from the never-restarted one after recovery")
	}
	mustCleanSharded(t, restored, len(rest), "post-restore batches")
}

// TestShardedCheckpointRequeues: a victim evicted on a shard it spilled
// to keeps its consumed requeue budget across a sharded restore, charged
// to the shard that will try it first.
func TestShardedCheckpointRequeues(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "hog", Demand: resource.Cores(12, 8192), Replicas: 1, Priority: workload.PriorityLow},
		{ID: "vip", Demand: resource.Cores(10, 8192), Replicas: 2, Priority: workload.PriorityHigh},
	})
	twoSubs := func() *topology.Cluster {
		return topology.New(topology.Config{
			Machines: 2, MachinesPerRack: 1, RacksPerCluster: 1,
			Capacity: resource.Cores(16, 32*1024),
		})
	}
	s := newSharded(t, shardedOpts(2, false), w, twoSubs())
	for _, app := range []string{"hog", "vip"} {
		if _, err := s.Place(appContainers(w, app)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.ExportState()
	if st.Requeues["hog/0"] != 1 || !reflect.DeepEqual(st.Undeployed, []string{"hog/0"}) || len(st.Assignment) != 2 {
		t.Fatalf("fixture: want both vips placed and hog/0 evicted once, got %+v", st)
	}
	restored, err := RestoreSharded(shardedOpts(2, false), w, twoSubs(), st)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("requeue ledger lost across a sharded restore: %+v, want %+v", got, st)
	}
	mustCleanSharded(t, restored, 0, "restore")
}

// TestShardedCheckpointCrossShape: the state says nothing of the shape
// that exported it — a sharded session's restores into a Session, and
// that Session's back into a sharded one, with the same assignment and
// ledgers each time.
func TestShardedCheckpointCrossShape(t *testing.T) {
	w := trace.MustGenerate(trace.Scaled(11, 300))
	sharded, _ := shardedMidTrace(t, w)
	st := sharded.ExportState()

	plain, err := RestoreSession(DefaultOptions(), w, freshCopy(t, sharded.Cluster()), st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Assignment(), sharded.Assignment()) {
		t.Fatal("sharded state restored into a Session with a different assignment")
	}
	if vs := plain.AuditInvariants(); len(vs) != 0 {
		t.Fatalf("Session restored from sharded state: %v", vs)
	}
	if got := plain.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("Session re-exports a different state:\n sharded: %+v\n plain: %+v", st, got)
	}

	back, err := RestoreSharded(shardedOpts(4, false), w, freshCopy(t, plain.Cluster()), plain.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Assignment(), sharded.Assignment()) {
		t.Fatal("Session state restored into a sharded session with a different assignment")
	}
	if !reflect.DeepEqual(back.StrandedIDs(), sharded.StrandedIDs()) {
		t.Fatalf("stranded ledger: %v, want %v", back.StrandedIDs(), sharded.StrandedIDs())
	}
	mustCleanSharded(t, back, 0, "cross-shape restore")
}

// TestRestoreWarmILCache proves the checkpointed IL cache is worth
// carrying: a warm restore (state with ILFailed) and a cold restore
// (the same state with ILFailed stripped, as an old-format snapshot
// would deliver) produce byte-identical placements for the same
// follow-up batch, but the warm session answers the unplaceable app's
// remaining replicas from the restored cache — strictly fewer
// aladdin_il_cache_misses_total than the cold session, which must
// re-prove unplaceability by searching.
func TestRestoreWarmILCache(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "giant", Demand: resource.Cores(64, 128*1024), Replicas: 4},
		{ID: "small", Demand: resource.Cores(2, 4096), Replicas: 4},
	})
	cl := topology.New(topology.Config{
		Machines:        8,
		MachinesPerRack: 4,
		Capacity:        resource.Cores(32, 64*1024),
	})
	s := NewSession(DefaultOptions(), w, cl)
	// giant/0 misses the IL cache and is proven unplaceable (64 cores
	// on 32-core machines); giant/1 is skipped off the fresh note.
	batch := append(appContainers(w, "small"), appContainers(w, "giant")[:2]...)
	if _, err := s.Place(batch); err != nil {
		t.Fatal(err)
	}
	st := s.ExportState()
	if !reflect.DeepEqual(st.ILFailed, []string{"giant"}) {
		t.Fatalf("captured ILFailed = %v, want [giant]", st.ILFailed)
	}

	restore := func(st *SessionState) (*Session, *obs.Registry) {
		t.Helper()
		reg := obs.NewRegistry()
		opts := DefaultOptions()
		opts.Metrics = reg
		fresh, err := topology.FromSpecs(cl.Specs())
		if err != nil {
			t.Fatal(err)
		}
		rs, err := RestoreSession(opts, w, fresh, st)
		if err != nil {
			t.Fatal(err)
		}
		return rs, reg
	}
	coldSt := *st
	coldSt.ILFailed = nil // what an ILFailed-less v2 snapshot restores to
	warm, warmReg := restore(st)
	cold, coldReg := restore(&coldSt)

	// Same follow-up batch on both: the remaining giant replicas.
	rest := appContainers(w, "giant")[2:]
	wres, err := warm.Place(rest)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := cold.Place(rest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wres.Undeployed, cres.Undeployed) {
		t.Fatalf("follow-up batches diverge: warm undeployed %v, cold %v", wres.Undeployed, cres.Undeployed)
	}
	assertSameSessionState(t, cold, warm)

	warmMiss := warmReg.Snapshot().Counters["aladdin_il_cache_misses_total"]
	coldMiss := coldReg.Snapshot().Counters["aladdin_il_cache_misses_total"]
	if warmMiss >= coldMiss {
		t.Fatalf("warm restore IL misses = %d, want strictly fewer than cold restore's %d", warmMiss, coldMiss)
	}
	warmHit := warmReg.Snapshot().Counters["aladdin_il_cache_hits_total"]
	if warmHit == 0 {
		t.Fatal("warm restore recorded no IL cache hits; restored cache was not consulted")
	}
}
