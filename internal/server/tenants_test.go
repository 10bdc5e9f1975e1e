package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"aladdin/internal/core"
)

// TestTenantLifecycle walks the registry CRUD surface: the default
// tenant pre-exists, created tenants appear on their /t/{name}/
// routes with isolated state, and deletion tears them down.
func TestTenantLifecycle(t *testing.T) {
	s, _ := testServer(t)

	rec := do(t, s, http.MethodGet, "/tenants", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list = %d: %s", rec.Code, rec.Body)
	}
	var infos []tenantInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != DefaultTenant {
		t.Fatalf("initial tenants = %+v, want just the default", infos)
	}

	rec = do(t, s, http.MethodPost, "/tenants", `{"name":"blue","machines":4}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	var info tenantInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "blue" || info.Machines != 4 {
		t.Fatalf("created tenant = %+v", info)
	}
	// The spec shared the default workload universe, so the container
	// population matches the default tenant's.
	if info.Containers != infos[0].Containers {
		t.Fatalf("blue universe = %d containers, want %d (shared)", info.Containers, infos[0].Containers)
	}

	if rec := do(t, s, http.MethodPost, "/tenants", `{"name":"blue"}`); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate create = %d, want 409", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/tenants", `{"name":"bad/name"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid name = %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/t/nope/healthz", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant route = %d, want 404", rec.Code)
	}

	// Isolation: a placement on blue never shows up on the default
	// tenant even though the container IDs coincide.
	if rec := do(t, s, http.MethodPost, "/t/blue/place", `{"containers":["web/0"]}`); rec.Code != http.StatusOK {
		t.Fatalf("blue place = %d: %s", rec.Code, rec.Body)
	}
	var blueAsg, defAsg []assignmentEntry
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/t/blue/assignments", "").Body.Bytes(), &blueAsg); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/assignments", "").Body.Bytes(), &defAsg); err != nil {
		t.Fatal(err)
	}
	if len(blueAsg) != 1 || len(defAsg) != 0 {
		t.Fatalf("assignments: blue=%d default=%d, want 1 and 0", len(blueAsg), len(defAsg))
	}
	if rec := do(t, s, http.MethodGet, "/t/blue/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("blue healthz = %d: %s", rec.Code, rec.Body)
	}

	// /debug/vars carries both tenants' cluster blocks.
	var vars varsResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/debug/vars", "").Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	if vars.Tenants["blue"].ContainersPlaced != 1 || vars.Tenants[DefaultTenant].ContainersPlaced != 0 {
		t.Fatalf("vars tenants = %+v", vars.Tenants)
	}

	if rec := do(t, s, http.MethodDelete, "/tenants/blue", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodGet, "/t/blue/healthz", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("deleted tenant route = %d, want 404", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/tenants/blue", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete = %d, want 404", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/tenants/"+DefaultTenant, ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("delete default = %d, want 400", rec.Code)
	}
}

// TestTenantPrivateWorkload: Factor > 0 generates a private synthetic
// universe instead of sharing the default tenant's.
func TestTenantPrivateWorkload(t *testing.T) {
	s, w := testServer(t)
	rec := do(t, s, http.MethodPost, "/tenants", `{"name":"gen","machines":8,"factor":2000,"seed":7}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	var info tenantInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Containers == 0 || info.Containers == w.NumContainers() {
		t.Fatalf("generated universe = %d containers, want a non-empty private one (default has %d)",
			info.Containers, w.NumContainers())
	}
	// The default tenant's container IDs don't exist there.
	if rec := do(t, s, http.MethodPost, "/t/gen/place", `{"containers":["web/0"]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("foreign id place = %d, want 400: %s", rec.Code, rec.Body)
	}
}

// TestTenantSharded: Shards > 1 backs the tenant with the sharded
// core; placement works, the tenant's row reports the shard count it
// got rather than the one it asked for, and a checkpoint survives a
// restore byte for byte.
func TestTenantSharded(t *testing.T) {
	s, _ := testServer(t)
	// Four machines are one sub-cluster, so the two shards asked for
	// clamp to one.
	rec := do(t, s, http.MethodPost, "/tenants", `{"name":"wide","machines":4,"shards":2}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	var created tenantInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	var infos []tenantInfo
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/tenants", "").Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if created.Shards != 1 || len(infos) != 2 || infos[1].Shards != 1 {
		t.Fatalf("shards: create reply %d, /tenants %+v; want the effective count 1", created.Shards, infos)
	}
	if rec := do(t, s, http.MethodPost, "/t/wide/place", `{"containers":["web/0","db/0"]}`); rec.Code != http.StatusOK {
		t.Fatalf("sharded place = %d: %s", rec.Code, rec.Body)
	}
	before := do(t, s, http.MethodPost, "/t/wide/checkpoint", "")
	if before.Code != http.StatusOK {
		t.Fatalf("sharded checkpoint = %d: %s", before.Code, before.Body)
	}
	body, err := json.Marshal(restoreRequest{Snapshot: before.Body.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodPost, "/t/wide/restore", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("sharded restore = %d: %s", rec.Code, rec.Body)
	}
	if after := do(t, s, http.MethodPost, "/t/wide/checkpoint", ""); after.Body.String() != before.Body.String() {
		t.Fatalf("checkpoint changed across restore:\n before: %s\n after: %s", before.Body, after.Body)
	}
	if rec := do(t, s, http.MethodGet, "/t/wide/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("sharded healthz = %d: %s", rec.Code, rec.Body)
	}
}

// TestShardedCheckpointRestore: a tenant on four real shards
// checkpoints with a machine down, restores its own snapshot to the
// same bytes and the same /assignments, and the same snapshot restored
// into an unsharded tenant serves the same /assignments — the snapshot
// does not know what shape captured it.
func TestShardedCheckpointRestore(t *testing.T) {
	s, _ := testServer(t)
	for _, spec := range []string{
		`{"name":"wide","machines":4000,"shards":4}`,
		`{"name":"flat","machines":4000}`,
	} {
		if rec := do(t, s, http.MethodPost, "/tenants", spec); rec.Code != http.StatusCreated {
			t.Fatalf("create %s = %d: %s", spec, rec.Code, rec.Body)
		}
	}
	if rec := do(t, s, http.MethodPost, "/t/wide/place", `{"containers":["web/0","web/1","web/2","db/0"]}`); rec.Code != http.StatusOK {
		t.Fatalf("place = %d: %s", rec.Code, rec.Body)
	}
	// Machine 0 hosts web/0: the failure re-places it and the snapshot
	// carries a down machine.
	if rec := do(t, s, http.MethodPost, "/t/wide/fail", `{"machine":0}`); rec.Code != http.StatusOK {
		t.Fatalf("fail = %d: %s", rec.Code, rec.Body)
	}
	snap := do(t, s, http.MethodPost, "/t/wide/checkpoint", "")
	if snap.Code != http.StatusOK {
		t.Fatalf("checkpoint = %d: %s", snap.Code, snap.Body)
	}
	asg := do(t, s, http.MethodGet, "/t/wide/assignments", "").Body.String()
	body, err := json.Marshal(restoreRequest{Snapshot: snap.Body.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"wide", "flat"} {
		if rec := do(t, s, http.MethodPost, "/t/"+tenant+"/restore", string(body)); rec.Code != http.StatusOK {
			t.Fatalf("%s restore = %d: %s", tenant, rec.Code, rec.Body)
		}
		if got := do(t, s, http.MethodGet, "/t/"+tenant+"/assignments", "").Body.String(); got != asg {
			t.Errorf("%s /assignments after restore:\n%s\nwant:\n%s", tenant, got, asg)
		}
		if got := do(t, s, http.MethodPost, "/t/"+tenant+"/checkpoint", "").Body.String(); got != snap.Body.String() {
			t.Errorf("%s checkpoint after restore differs from the snapshot restored", tenant)
		}
		if rec := do(t, s, http.MethodGet, "/t/"+tenant+"/healthz", ""); rec.Code != http.StatusOK {
			t.Errorf("%s healthz = %d: %s", tenant, rec.Code, rec.Body)
		}
	}
	var infos []tenantInfo
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/tenants", "").Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	// Each tenant kept the shape it was created with.
	wantShards := map[string]int{DefaultTenant: 0, "flat": 0, "wide": 4}
	for _, ti := range infos {
		if ti.Shards != wantShards[ti.Name] {
			t.Errorf("tenant %s reports %d shards after restore, want %d", ti.Name, ti.Shards, wantShards[ti.Name])
		}
	}
}

// TestShardedTenantExplain: /explain diagnoses a sharded tenant against
// the machines its shards schedule on.  It used to snapshot the cluster
// the sharded core was built from, which no shard ever touched: the
// shadow cluster had no residents and no failed machine, so the answer
// chose the down machine, rejected nothing on resources and named no
// blocking application.
func TestShardedTenantExplain(t *testing.T) {
	s, _ := testServer(t)
	if rec := do(t, s, http.MethodPost, "/tenants", `{"name":"wide","machines":4000,"shards":4}`); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/t/wide/place", `{"containers":["web/0","web/1"]}`); rec.Code != http.StatusOK {
		t.Fatalf("place = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/t/wide/fail", `{"machine":2}`); rec.Code != http.StatusOK {
		t.Fatalf("fail = %d: %s", rec.Code, rec.Body)
	}
	rec := do(t, s, http.MethodGet, "/t/wide/explain?container=db/0", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("explain = %d: %s", rec.Code, rec.Body)
	}
	var e core.Explanation
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	// web/0 and web/1 sit on machines 0 and 1 and keep db off both;
	// machine 2 is down; machine 3 is the first that takes db/0.
	if e.Chosen != 3 || e.ResourceRejected != 1 || e.BlacklistRejected != 2 {
		t.Errorf("explain = %+v, want Chosen 3, ResourceRejected 1, BlacklistRejected 2", e)
	}
	if len(e.SampleBlockers) != 2 {
		t.Fatalf("blockers = %+v, want the two web machines", e.SampleBlockers)
	}
	for _, bl := range e.SampleBlockers {
		if len(bl.Apps) != 1 || bl.Apps[0] != "web" {
			t.Errorf("blocker on machine %d names %v, want [web]", bl.Machine, bl.Apps)
		}
	}
}

// TestShardedTenantClusterSample: the scrape-time cluster summary of a
// sharded tenant comes from the shard clusters that hold its
// allocations.  It used to read the cluster the sharded core was built
// from, which stays empty, so aladdin_machines_used and /debug/vars
// machines_used (and the allocation and utilization fields beside
// them) reported 0 whatever was placed.
func TestShardedTenantClusterSample(t *testing.T) {
	s, _ := testServer(t)
	// 4,000 machines: four sub-clusters, so four real shards.
	rec := do(t, s, http.MethodPost, "/tenants", `{"name":"wide","machines":4000,"shards":4}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/t/wide/place", `{"containers":["web/0","web/1","db/0"]}`); rec.Code != http.StatusOK {
		t.Fatalf("sharded place = %d: %s", rec.Code, rec.Body)
	}
	var asg []assignmentEntry
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/t/wide/assignments", "").Body.Bytes(), &asg); err != nil {
		t.Fatal(err)
	}
	hosts := map[string]bool{}
	for _, a := range asg {
		hosts[a.MachineID] = true
	}
	if len(asg) != 3 || len(hosts) != 3 {
		t.Fatalf("assignments = %+v, want 3 containers on 3 machines (web spreads, db avoids web)", asg)
	}
	if rec := do(t, s, http.MethodPost, "/t/wide/fail", fmt.Sprintf(`{"machine":%d}`, 3999)); rec.Code != http.StatusOK {
		t.Fatalf("fail = %d: %s", rec.Code, rec.Body)
	}

	var vars varsResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/debug/vars", "").Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	got := vars.Tenants["wide"]
	want := clusterVars{
		Machines: 4000, MachinesUsed: 3, MachinesDown: 1, ContainersPlaced: 3,
		CPUMilli: 4000 + 4000 + 8000, MemMB: 8192 + 8192 + 16384,
		UtilizationMin: 4.0 / 32, UtilizationMean: (4.0 + 4.0 + 8.0) / 32 / 3, UtilizationMax: 8.0 / 32,
	}
	if got != want {
		t.Errorf("/debug/vars wide = %+v, want %+v", got, want)
	}
	body := do(t, s, http.MethodGet, "/metrics", "").Body.String()
	if line := `aladdin_machines_used{tenant="wide"} 3`; !strings.Contains(body, line) {
		t.Errorf("/metrics lacks %q", line)
	}
	// GET /tenants reads the same live state: the failed machine lives
	// on a shard's topology copy, not on the parent routing map.
	var infos []tenantInfo
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/tenants", "").Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	wide := tenantInfo{}
	for _, ti := range infos {
		if ti.Name == "wide" {
			wide = ti
		}
	}
	if wide.Machines != 4000 || wide.MachinesDown != 1 || wide.Placed != 3 {
		t.Errorf("/tenants wide = %+v, want 4000 machines, 1 down, 3 placed", wide)
	}
}
