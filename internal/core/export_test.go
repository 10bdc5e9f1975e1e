package core

import (
	"bytes"
	"strings"
	"testing"

	"aladdin/internal/constraint"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

func TestExportNetworkDOT(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(4, 4096), Replicas: 2, AntiAffinitySelf: true},
	})
	cl := smallCluster(2)
	res := mustSchedule(t, NewDefault(), w, cl, workload.OrderSubmission)

	var buf bytes.Buffer
	if err := ExportNetworkDOT(&buf, w, cl, res.Assignment); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph flow {",
		`label="s"`, `label="t"`,
		`label="A:a"`, `label="T:a/0"`, `label="T:a/1"`,
		"N:machine-00000", "R:rack-0000", "G:cluster-00",
		"style=solid", // flows exist
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestExportNetworkDOTBadAssignment(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(4, 4096), Replicas: 1},
	})
	cl := smallCluster(2)
	bad := constraint.Assignment{"a/0": 99}
	var buf bytes.Buffer
	if err := ExportNetworkDOT(&buf, w, cl, bad); err == nil {
		t.Error("unknown machine in assignment should fail")
	}
}

// checkRelocationMemo is the differential oracle for the rescue
// relocation memo: from now on every memoised answer the session (or
// each shard's session) gives is compared with a fresh findMachine for
// the same container and exclusion, and any disagreement fails the
// test (Errorf, not Fatalf: shard sessions answer on worker
// goroutines).  The oracle's own searches add to WorkUnits and the
// search counters, so tests that pin those must not install it.
func checkRelocationMemo(tb testing.TB, sessions ...*Session) {
	for _, s := range sessions {
		s.r.rescue.check = func(b *workload.Container, m, memoised, fresh topology.MachineID) {
			if memoised != fresh {
				tb.Errorf("relocation memo: %s lifted off machine %d: memo says %d, fresh search says %d", b.ID, m, memoised, fresh)
			}
		}
	}
}

// shardSessions exposes a sharded session's per-shard sessions to
// checkRelocationMemo.
func shardSessions(ss *ShardedSession) []*Session {
	out := make([]*Session, len(ss.shards))
	for i, sh := range ss.shards {
		out[i] = sh.sess
	}
	return out
}
