package checkpoint

import (
	"bytes"
	"testing"

	"aladdin/internal/core"
	"aladdin/internal/resource"
	"aladdin/internal/workload"
)

// FuzzCheckpointRead feeds arbitrary bytes through the snapshot
// decoder and, for anything it accepts, through restore against a
// small fixed workload.  The invariants: ReadSession never panics —
// the retired v1 format among the seeds is rejected by version — and
// an accepted snapshot either restores or fails with a clean error —
// never a crash, never a half-restored state that flunks the
// invariant audit.
func FuzzCheckpointRead(f *testing.F) {
	f.Add([]byte(`{"version": 1, "machines": 4, "machines_per_rack": 2, "racks_per_cluster": 2,
		"capacity_cpu_milli": 32000, "capacity_mem_mb": 65536,
		"placements": [{"container": "web/0", "machine": 0}]}`))
	f.Add([]byte(`{"version": 2, "layout": {"machines_per_rack": 2, "racks_per_cluster": 1}, "machines": [
		{"name": "m0", "rack": "r0", "cluster": "g0", "capacity_cpu_milli": 32000, "capacity_mem_mb": 65536},
		{"name": "m1", "rack": "r0", "cluster": "g0", "capacity_cpu_milli": 16000, "capacity_mem_mb": 32768, "down": true}],
		"placements": [{"container": "web/0", "machine": 0}], "undeployed": ["web/1"],
		"requeues": [{"container": "web/0", "count": 1}]}`))
	f.Add([]byte(`{"version": 2`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"version": 1, "machines": -7}`))

	w := workload.MustNew([]*workload.App{
		{ID: "web", Demand: resource.Cores(4, 8192), Replicas: 2, AntiAffinitySelf: true},
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if snap, err := ReadSession(bytes.NewReader(data)); err == nil {
			sess, _, rerr := snap.Restore(core.DefaultOptions(), w)
			if rerr == nil {
				if vs := sess.AuditInvariants(); len(vs) != 0 {
					t.Fatalf("accepted snapshot restored into a session with violations: %v", vs)
				}
			}
		}
	})
}
