package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aladdin/internal/core"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

// liveSession builds a session mid-trace: half the apps placed, two
// machines failed (evictions stranded in the undeployed ledger), on a
// heterogeneous cluster — everything the v1 format cannot hold.
func liveSession(t *testing.T) (*core.Session, *workload.Workload, [][]*workload.Container) {
	t.Helper()
	w := trace.MustGenerate(trace.Scaled(13, 300))
	cl, err := topology.NewHeterogeneous(topology.HeteroConfig{
		MachinesPerRack: 8, RacksPerCluster: 3,
		Classes: []topology.MachineClass{
			{Name: "big", Count: 24, Capacity: resource.Cores(32, 64*1024)},
			{Name: "small", Count: 24, Capacity: resource.Cores(16, 32*1024)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]*workload.Container
	for _, a := range w.Apps() {
		var b []*workload.Container
		for _, c := range w.Containers() {
			if c.App == a.ID {
				b = append(b, c)
			}
		}
		batches = append(batches, b)
	}
	s := core.NewSession(core.DefaultOptions(), w, cl)
	for _, b := range batches[:len(batches)/2] {
		if _, err := s.Place(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []topology.MachineID{2, 30} {
		if _, err := s.FailMachine(id); err != nil {
			t.Fatal(err)
		}
	}
	return s, w, batches
}

// TestSessionSnapshotRoundTrip captures a live heterogeneous session
// with down machines, round-trips it through JSON, restores, and
// requires byte-identical subsequent scheduling versus the session
// that never restarted.
func TestSessionSnapshotRoundTrip(t *testing.T) {
	s, w, batches := liveSession(t)
	snap, err := CaptureSession(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Fatal("snapshot changed across encode/decode")
	}
	restored, cl2, err := back.Restore(core.DefaultOptions(), w)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []topology.MachineID{2, 30} {
		if cl2.Machine(id).Up() {
			t.Fatalf("machine %d should restore down", id)
		}
	}
	if !reflect.DeepEqual(restored.ExportState(), s.ExportState()) {
		t.Fatal("restored state differs from captured session")
	}
	// Replay the remaining batches on both timelines.
	for _, b := range batches[len(batches)/2:] {
		if _, err := s.Place(b); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.Place(b); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(restored.ExportState(), s.ExportState()) {
		t.Fatal("restored session diverged on subsequent batches")
	}
	if vs := restored.AuditInvariants(); len(vs) != 0 {
		t.Fatalf("restored session violations: %v", vs)
	}
}

// TestShardedCheckpointSnapshot: a snapshot captured from a sharded
// session is an ordinary v2 snapshot.  It restores into a sharded
// session and into an unsharded one, and a capture of either is the
// captured snapshot again, byte for byte.
func TestShardedCheckpointSnapshot(t *testing.T) {
	w := trace.MustGenerate(trace.Scaled(13, 300))
	opts := core.DefaultOptions()
	opts.Shards = 3
	sharded, err := core.NewSharded(opts, w, topology.New(topology.Config{
		Machines: 48, MachinesPerRack: 4, RacksPerCluster: 4,
		Capacity: resource.Cores(32, 64*1024),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sharded.NumShards() != 3 {
		t.Fatalf("fixture has %d shards, want 3", sharded.NumShards())
	}
	if _, err := sharded.Place(w.Containers()[:w.NumContainers()/2]); err != nil {
		t.Fatal(err)
	}
	for _, id := range []topology.MachineID{2, 30} {
		if _, err := sharded.FailMachine(id); err != nil {
			t.Fatal(err)
		}
	}
	encode := func(src Source) []byte {
		t.Helper()
		snap, err := CaptureSession(src)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := encode(sharded)
	snap, err := ReadSession(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Placements) == 0 || len(snap.Stranded) == 0 {
		t.Fatalf("fixture too easy: %d placements, %d stranded", len(snap.Placements), len(snap.Stranded))
	}

	cluster, st, err := snap.State()
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.RestoreSharded(opts, w, cluster, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := encode(back); !bytes.Equal(got, want) {
		t.Error("sharded → snapshot → sharded → snapshot is not byte-identical")
	}
	if vs := back.AuditInvariants(); len(vs) != 0 {
		t.Errorf("restored sharded session violations: %v", vs)
	}

	plain, _, err := snap.Restore(core.DefaultOptions(), w)
	if err != nil {
		t.Fatal(err)
	}
	if got := encode(plain); !bytes.Equal(got, want) {
		t.Error("sharded → snapshot → unsharded → snapshot is not byte-identical")
	}
	if vs := plain.AuditInvariants(); len(vs) != 0 {
		t.Errorf("unsharded session restored from a sharded snapshot: %v", vs)
	}
}

func TestSessionSnapshotWriteFile(t *testing.T) {
	s, w, _ := liveSession(t)
	snap, err := CaptureSession(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := back.Restore(core.DefaultOptions(), w); err != nil {
		t.Fatal(err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory should hold only the snapshot, got %d entries", len(entries))
	}
	// A flipped byte fails the checksum.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(raw, []byte(`"capacity_mem_mb": 65536`), []byte(`"capacity_mem_mb": 65537`), 1)
	if bytes.Equal(raw, bad) {
		t.Fatal("corruption edit did not apply")
	}
	if _, err := ReadSession(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted snapshot should fail")
	}
}

// TestWriteFileSyncsDirectory pins the final step of the crash-safety
// contract: after renaming the temp file over the target, WriteFile
// must fsync the parent directory.  Without it the rename itself is
// not durable — a crash right after WriteFile returns can roll the
// directory entry back and lose the checkpoint the caller was told
// had been written.  The sync runs through the syncDir seam so the
// test can observe the call and inject failures.
func TestWriteFileSyncsDirectory(t *testing.T) {
	s, _, _ := liveSession(t)
	snap, err := CaptureSession(s)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")

	orig := syncDir
	defer func() { syncDir = orig }()
	var synced []string
	syncDir = func(d string) error {
		// The snapshot must already sit at its final name when the
		// directory is synced: syncing earlier would not cover the
		// rename.
		if _, err := os.Stat(path); err != nil {
			t.Errorf("directory synced before snapshot landed at %s: %v", path, err)
		}
		synced = append(synced, d)
		return orig(d)
	}
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("expected exactly one directory sync of %q, got %v", dir, synced)
	}

	// A directory-sync failure must surface: the caller cannot treat
	// the checkpoint as durable.
	syncDir = func(string) error { return errors.New("injected sync failure") }
	if err := WriteFile(filepath.Join(dir, "snap2.json"), snap); err == nil || !strings.Contains(err.Error(), "sync dir") {
		t.Fatalf("expected sync-dir error, got %v", err)
	}
}

func TestReadSessionValidation(t *testing.T) {
	machines := `"machines": [{"name": "m0", "rack": "r0", "cluster": "g0", "capacity_cpu_milli": 1000, "capacity_mem_mb": 1024}]`
	layout := `"layout": {"machines_per_rack": 1, "racks_per_cluster": 1}`
	cases := map[string]string{
		"empty":         ``,
		"wrong version": `{"version": 1, ` + layout + `, ` + machines + `}`,
		"retired v1 body": `{"version": 1, "machines": 4, "machines_per_rack": 2, "racks_per_cluster": 2,
			"capacity_cpu_milli": 32000, "capacity_mem_mb": 65536, "placements": [{"container": "web/0", "machine": 0}]}`,
		"unknown field":   `{"version": 2, ` + layout + `, ` + machines + `, "extra": 1}`,
		"no machines":     `{"version": 2, ` + layout + `, "machines": []}`,
		"zero layout":     `{"version": 2, "layout": {"machines_per_rack": 0, "racks_per_cluster": 1}, ` + machines + `}`,
		"layout mismatch": `{"version": 2, "layout": {"machines_per_rack": 9, "racks_per_cluster": 1}, ` + machines + `}`,
		"sub mismatch":    `{"version": 2, "layout": {"machines_per_rack": 1, "racks_per_cluster": 4}, ` + machines + `}`,
		"empty name": `{"version": 2, ` + layout + `, "machines": [
			{"name": "", "rack": "r0", "cluster": "g0", "capacity_cpu_milli": 1000, "capacity_mem_mb": 1024}]}`,
		"dup machine": `{"version": 2, "layout": {"machines_per_rack": 2, "racks_per_cluster": 1}, "machines": [
			{"name": "m0", "rack": "r0", "cluster": "g0", "capacity_cpu_milli": 1000, "capacity_mem_mb": 1024},
			{"name": "m0", "rack": "r0", "cluster": "g0", "capacity_cpu_milli": 1000, "capacity_mem_mb": 1024}]}`,
		"zero capacity": `{"version": 2, ` + layout + `, "machines": [
			{"name": "m0", "rack": "r0", "cluster": "g0", "capacity_cpu_milli": 0, "capacity_mem_mb": 1024}]}`,
		"rack in two subs": `{"version": 2, "layout": {"machines_per_rack": 2, "racks_per_cluster": 1}, "machines": [
			{"name": "m0", "rack": "r0", "cluster": "g0", "capacity_cpu_milli": 1000, "capacity_mem_mb": 1024},
			{"name": "m1", "rack": "r0", "cluster": "g1", "capacity_cpu_milli": 1000, "capacity_mem_mb": 1024}]}`,
		"dup placement": `{"version": 2, ` + layout + `, ` + machines + `,
			"placements": [{"container": "a/0", "machine": 0}, {"container": "a/0", "machine": 0}]}`,
		"placement out of range": `{"version": 2, ` + layout + `, ` + machines + `,
			"placements": [{"container": "a/0", "machine": 7}]}`,
		"placement on down": `{"version": 2, ` + layout + `, "machines": [
			{"name": "m0", "rack": "r0", "cluster": "g0", "capacity_cpu_milli": 1000, "capacity_mem_mb": 1024, "down": true}],
			"placements": [{"container": "a/0", "machine": 0}]}`,
		"placed and undeployed": `{"version": 2, ` + layout + `, ` + machines + `,
			"placements": [{"container": "a/0", "machine": 0}], "undeployed": ["a/0"]}`,
		"dup undeployed": `{"version": 2, ` + layout + `, ` + machines + `, "undeployed": ["a/0", "a/0"]}`,
		"zero requeue": `{"version": 2, ` + layout + `, ` + machines + `,
			"requeues": [{"container": "a/0", "count": 0}]}`,
		"dup requeue": `{"version": 2, ` + layout + `, ` + machines + `,
			"requeues": [{"container": "a/0", "count": 1}, {"container": "a/0", "count": 2}]}`,
		"bad checksum": `{"version": 2, "checksum": "deadbeef", ` + layout + `, ` + machines + `}`,
	}
	for name, in := range cases {
		if _, err := ReadSession(strings.NewReader(in)); err == nil {
			t.Errorf("%s: input should fail", name)
		}
	}
	// A checksum-free snapshot (hand-written) is accepted.
	ok := `{"version": 2, ` + layout + `, ` + machines + `}`
	if _, err := ReadSession(strings.NewReader(ok)); err != nil {
		t.Errorf("checksum-free snapshot should parse: %v", err)
	}
}
