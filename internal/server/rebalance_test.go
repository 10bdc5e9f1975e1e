package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"aladdin/internal/constraint"
	"aladdin/internal/core"
	"aladdin/internal/rebalance"
	"aladdin/internal/resource"
	"aladdin/internal/sched"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// fragServer builds a server whose default tenant is scattered one
// container per machine — consolidation bait the endpoints can act on.
func fragServer(t *testing.T) *Server {
	t.Helper()
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(8, 16384), Replicas: 16},
	})
	cl := topology.New(topology.Config{
		Machines: 4, MachinesPerRack: 2, RacksPerCluster: 2,
		Capacity: resource.Cores(32, 64*1024),
	})
	sess := core.NewSession(core.DefaultOptions(), w, cl)
	if _, err := sess.Place(w.Containers()); err != nil {
		t.Fatal(err)
	}
	perMachine := make(map[topology.MachineID]bool)
	for id, m := range sess.Assignment() {
		if perMachine[m] {
			if err := sess.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		perMachine[m] = true
	}
	return New(sess, w, cl)
}

func TestConsolidateEndpoint(t *testing.T) {
	s := fragServer(t)

	// Budgeted call: exactly one move, more work left.
	rec := do(t, s, http.MethodPost, "/consolidate", `{"budget":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("consolidate = %d: %s", rec.Code, rec.Body)
	}
	var res core.ConsolidateResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Moves != 1 || !res.More {
		t.Fatalf("budgeted consolidate = %+v, want 1 move and more", res)
	}

	// Unbudgeted call drains the rest: 4 one-resident machines pack
	// onto one (8 cores x 4 fit a 32-core machine).
	rec = do(t, s, http.MethodPost, "/consolidate", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("consolidate = %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 || res.More {
		t.Fatalf("full consolidate = %+v, want moves > 0 and no more", res)
	}

	if rec := do(t, s, http.MethodPost, "/consolidate", `{"budget":-1}`); rec.Code != http.StatusBadRequest {
		t.Errorf("negative budget = %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/consolidate", `nope`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad json = %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/t/ghost/consolidate", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown tenant = %d, want 404", rec.Code)
	}
}

func TestRebalanceEndpoint(t *testing.T) {
	s := fragServer(t)
	rec := do(t, s, http.MethodPost, "/rebalance", `{"budget":2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("rebalance = %d: %s", rec.Code, rec.Body)
	}
	var res rebalance.CycleResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Budget != 2 || res.Moves == 0 || res.Moves > 2 {
		t.Fatalf("cycle = %+v, want budget 2 honoured with moves in (0,2]", res)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("cycle reported violations: %v", res.Violations)
	}
	// Unbudgeted cycles converge; fragmentation stays at the endpoint's
	// mercy (empty machines keep the gauge high), so run to quiescence.
	for i := 0; ; i++ {
		rec = do(t, s, http.MethodPost, "/rebalance", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("rebalance = %d: %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.Moves == 0 && !res.More {
			break
		}
		if i > 16 {
			t.Fatal("rebalance cycles did not converge")
		}
	}
	if rec := do(t, s, http.MethodPost, "/rebalance", `{"budget":-2}`); rec.Code != http.StatusBadRequest {
		t.Errorf("negative budget = %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/t/ghost/rebalance", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown tenant = %d, want 404", rec.Code)
	}
}

func TestRebalanceStartStop(t *testing.T) {
	s, _ := testServer(t)
	if rec := do(t, s, http.MethodPost, "/rebalance/start", `{"interval_ms":0}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("zero interval = %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/rebalance/start", `bad`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json = %d, want 400", rec.Code)
	}
	rec := do(t, s, http.MethodPost, "/rebalance/start", `{"interval_ms":60000,"budget":4}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("start = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/rebalance/start", `{"interval_ms":60000}`); rec.Code != http.StatusConflict {
		t.Fatalf("double start = %d, want 409: %s", rec.Code, rec.Body)
	}
	def := s.lookupTenant(DefaultTenant)
	if !def.rebalancer(nil).Running() {
		t.Fatal("rebalancer not running after /rebalance/start")
	}
	if rec := do(t, s, http.MethodPost, "/rebalance/stop", ""); rec.Code != http.StatusOK {
		t.Fatalf("stop = %d: %s", rec.Code, rec.Body)
	}
	if def.rebalancer(nil).Running() {
		t.Fatal("rebalancer still running after /rebalance/stop")
	}
	// Idempotent stop, and a stopped loop restarts.
	if rec := do(t, s, http.MethodPost, "/rebalance/stop", ""); rec.Code != http.StatusOK {
		t.Fatalf("second stop = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/rebalance/start", `{"interval_ms":60000}`); rec.Code != http.StatusOK {
		t.Fatalf("restart = %d: %s", rec.Code, rec.Body)
	}
	do(t, s, http.MethodPost, "/rebalance/stop", "")
	if rec := do(t, s, http.MethodPost, "/t/ghost/rebalance/start", `{"interval_ms":1000}`); rec.Code != http.StatusNotFound {
		t.Errorf("unknown tenant start = %d, want 404", rec.Code)
	}
}

// TestConsolidateShardedTenant routes the consolidation path through a
// sharded-core tenant: scatter by placing and removing, then drain
// through the endpoint.
func TestConsolidateShardedTenant(t *testing.T) {
	s, _ := testServer(t)
	rec := do(t, s, http.MethodPost, "/tenants", `{"name":"wide","machines":16,"shards":2}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/t/wide/place", `{"containers":["web/0","web/1","web/2","db/0"]}`); rec.Code != http.StatusOK {
		t.Fatalf("sharded place = %d: %s", rec.Code, rec.Body)
	}
	rec = do(t, s, http.MethodPost, "/t/wide/consolidate", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("sharded consolidate = %d: %s", rec.Code, rec.Body)
	}
	var res core.ConsolidateResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.More {
		t.Fatalf("sharded consolidate left work behind: %+v", res)
	}
	// One full cycle through the sharded target adapter too.
	if rec := do(t, s, http.MethodPost, "/t/wide/rebalance", `{"budget":8}`); rec.Code != http.StatusOK {
		t.Fatalf("sharded rebalance = %d: %s", rec.Code, rec.Body)
	}
}

// corruptSched wraps a healthy in-memory state but fails the
// continuous-rescheduling surface with state corruption — the error
// class the HTTP layer must map to 500, not 409.
type corruptSched struct {
	w *workload.Workload
}

func (c corruptSched) Cluster() *topology.Cluster      { return nil }
func (c corruptSched) ExportState() *core.SessionState { return &core.SessionState{} }
func (c corruptSched) Options() core.Options           { return core.Options{} }
func (c corruptSched) NumShards() int                  { return 0 }

func (c corruptSched) Place([]*workload.Container) (*sched.Result, error) {
	return nil, fmt.Errorf("corrupt")
}
func (c corruptSched) Remove(string) error { return fmt.Errorf("corrupt") }
func (c corruptSched) FailMachine(topology.MachineID) (*core.FailureResult, error) {
	return nil, fmt.Errorf("corrupt")
}
func (c corruptSched) RecoverMachine(topology.MachineID) (*core.RecoverResult, error) {
	return nil, fmt.Errorf("corrupt")
}
func (c corruptSched) Assignment() constraint.Assignment      { return nil }
func (c corruptSched) Placed(string) bool                     { return false }
func (c corruptSched) Audit() []constraint.Violation          { return nil }
func (c corruptSched) FlowConservation() error                { return nil }
func (c corruptSched) AuditInvariants() []core.AuditViolation { return nil }
func (c corruptSched) PackingStats() core.PackingStats {
	return core.PackingStats{Stranded: 1}
}
func (c corruptSched) ConsolidateN(int) (core.ConsolidateResult, error) {
	return core.ConsolidateResult{}, fmt.Errorf("drain: %w", core.ErrStateCorruption)
}
func (c corruptSched) RetryStranded(int) (*core.RetryResult, error) {
	return nil, fmt.Errorf("retry: %w", core.ErrStateCorruption)
}

// TestConsolidateCorruptionStatus injects a Sched whose rescheduling
// surface reports state corruption: both endpoints must answer 500 —
// the restore-from-checkpoint signal — never a retryable 409.
func TestConsolidateCorruptionStatus(t *testing.T) {
	s, w := testServer(t)
	bad := newTenant("bad", corruptSched{w: w}, w, topology.New(topology.Config{
		Machines: 2, MachinesPerRack: 2, RacksPerCluster: 1,
		Capacity: resource.Cores(32, 64*1024),
	}), "", nil)
	s.mu.Lock()
	s.tenants["bad"] = bad
	s.mu.Unlock()

	if rec := do(t, s, http.MethodPost, "/t/bad/consolidate", ""); rec.Code != http.StatusInternalServerError {
		t.Errorf("corrupt consolidate = %d, want 500: %s", rec.Code, rec.Body)
	}
	// The cycle hits the corruption in the stranded retry (PackingStats
	// advertises a stranding) and must surface the same 500.
	if rec := do(t, s, http.MethodPost, "/t/bad/rebalance", ""); rec.Code != http.StatusInternalServerError {
		t.Errorf("corrupt rebalance = %d, want 500: %s", rec.Code, rec.Body)
	}
}
