package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"aladdin/internal/core"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// SessionFormatVersion identifies the v2 session snapshot schema.
const SessionFormatVersion = 2

// Layout records the rack/sub-cluster shape the snapshot was taken
// from.  ReadSession validates it against the per-machine specs —
// a snapshot whose layout disagrees with its machine list is corrupt,
// not "use a default": restoring onto different rack boundaries would
// silently change anti-affinity semantics.
type Layout struct {
	// MachinesPerRack is the size of the largest rack.
	MachinesPerRack int `json:"machines_per_rack"`
	// RacksPerCluster is the rack count of the largest sub-cluster.
	RacksPerCluster int `json:"racks_per_cluster"`
}

// MachineState is one machine's spec in a session snapshot:
// identity, topology position, capacity, and availability.  Unlike
// the v1 format, capacities are per-machine (heterogeneous clusters
// checkpoint losslessly) and down machines are recorded.
type MachineState struct {
	Name    string `json:"name"`
	Rack    string `json:"rack"`
	Cluster string `json:"cluster"`
	// Per-machine capacity.
	CPUMilli int64 `json:"capacity_cpu_milli"`
	MemMB    int64 `json:"capacity_mem_mb"`
	// Down marks the machine failed at capture time; Restore rebuilds
	// it out of service.
	Down bool `json:"down,omitempty"`
}

// RequeueCount records the consumed preemption re-queue budget for
// one container.
type RequeueCount struct {
	Container string `json:"container"`
	Count     int    `json:"count"`
}

// SessionSnapshot is the v2, session-level checkpoint: the full
// per-machine topology (capacities, down set), every placement, and
// the session's undeployed and requeue ledgers.  Restoring it yields
// a core.Session whose subsequent scheduling decisions are
// byte-identical to a session that never restarted.  The snapshot does
// not record how the session was sharded — machine ids are the
// cluster's own either way — so one captured from a sharded session
// restores into either shape (State).
type SessionSnapshot struct {
	Version int `json:"version"`
	// Checksum is the hex sha256 of the snapshot's JSON encoding with
	// this field cleared.  Write computes it; ReadSession verifies it
	// when non-empty (hand-written snapshots may omit it).
	Checksum string `json:"checksum,omitempty"`
	Layout   Layout `json:"layout"`
	// Machines in machine-ID order; FromSpecs reassigns the same IDs.
	Machines []MachineState `json:"machines"`
	// Placements, sorted by container ID for determinism.
	Placements []Placement `json:"placements"`
	// Undeployed lists submitted-but-unplaced containers (arrival
	// rejections, preemption strandings, failure evictions), sorted.
	Undeployed []string `json:"undeployed,omitempty"`
	// Stranded lists the subset of Undeployed evicted by machine
	// failures and eligible for automatic retry after recovery,
	// sorted.  Optional: snapshots from before this field restore
	// with every undeployed container requiring explicit
	// re-submission.
	Stranded []string `json:"stranded,omitempty"`
	// Requeues is the consumed preemption re-queue budget, sorted by
	// container ID.
	Requeues []RequeueCount `json:"requeues,omitempty"`
	// ILFailed lists applications the isomorphism-limiting cache had
	// proven unplaceable at capture time, sorted.  Restoring it warms
	// the memo so the first post-restore batch pays no re-miss storm;
	// the entries stay valid because the restored cluster state is
	// exactly the captured one.  Optional: snapshots from before this
	// field (or hand-written ones) restore with a cold cache.
	ILFailed []string `json:"il_failed,omitempty"`
}

// Source is what CaptureSession reads off a live session; *core.Session
// and *core.ShardedSession both provide it.
type Source interface {
	Cluster() *topology.Cluster
	ExportState() *core.SessionState
}

// CaptureSession snapshots a live session: topology (including down
// machines and heterogeneous capacities), placements, and the
// undeployed/requeue ledgers.
func CaptureSession(s Source) (*SessionSnapshot, error) {
	cluster := s.Cluster()
	if cluster.Size() == 0 {
		return nil, fmt.Errorf("checkpoint: empty cluster")
	}
	snap := &SessionSnapshot{Version: SessionFormatVersion}
	for _, sp := range cluster.Specs() {
		snap.Machines = append(snap.Machines, MachineState{
			Name:     sp.Name,
			Rack:     sp.Rack,
			Cluster:  sp.Cluster,
			CPUMilli: sp.Capacity.CPUMilli,
			MemMB:    sp.Capacity.MemMB,
			Down:     sp.Down,
		})
	}
	for _, rname := range cluster.Racks() {
		if n := len(cluster.Rack(rname).Machines); n > snap.Layout.MachinesPerRack {
			snap.Layout.MachinesPerRack = n
		}
	}
	for _, gname := range cluster.SubClusters() {
		if n := len(cluster.SubCluster(gname).Racks); n > snap.Layout.RacksPerCluster {
			snap.Layout.RacksPerCluster = n
		}
	}

	st := s.ExportState()
	for id, machine := range st.Assignment {
		m := cluster.Machine(machine)
		if m == nil {
			return nil, fmt.Errorf("checkpoint: assignment references unknown machine %d", machine)
		}
		if !m.Hosts(id) {
			return nil, fmt.Errorf("checkpoint: container %s not hosted on machine %d", id, machine)
		}
		snap.Placements = append(snap.Placements, Placement{Container: id, Machine: machine})
	}
	sort.Slice(snap.Placements, func(i, j int) bool {
		return snap.Placements[i].Container < snap.Placements[j].Container
	})
	snap.Undeployed = append(snap.Undeployed, st.Undeployed...)
	snap.Stranded = append(snap.Stranded, st.Stranded...)
	for id, n := range st.Requeues {
		snap.Requeues = append(snap.Requeues, RequeueCount{Container: id, Count: n})
	}
	sort.Slice(snap.Requeues, func(i, j int) bool {
		return snap.Requeues[i].Container < snap.Requeues[j].Container
	})
	snap.ILFailed = append(snap.ILFailed, st.ILFailed...)
	return snap, nil
}

// checksum computes the hex sha256 of the snapshot's compact JSON
// encoding with the Checksum field cleared.
func (s *SessionSnapshot) checksum() (string, error) {
	clone := *s
	clone.Checksum = ""
	b, err := json.Marshal(&clone)
	if err != nil {
		return "", fmt.Errorf("checkpoint: checksum encode: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Write serialises the snapshot as indented JSON, stamping the
// content checksum.
func (s *SessionSnapshot) Write(w io.Writer) error {
	sum, err := s.checksum()
	if err != nil {
		return err
	}
	s.Checksum = sum
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	return nil
}

// ReadSession parses and validates a v2 session snapshot.  Every
// structural invariant is checked here so Restore can trust the
// snapshot: version, layout consistency against the machine list,
// machine spec validity, placement/ledger referential integrity, and
// the content checksum when present.
func ReadSession(r io.Reader) (*SessionSnapshot, error) {
	var s SessionSnapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if s.Version != SessionFormatVersion {
		return nil, fmt.Errorf("checkpoint: unsupported session version %d (want %d)", s.Version, SessionFormatVersion)
	}
	if s.Checksum != "" {
		want, err := s.checksum()
		if err != nil {
			return nil, err
		}
		if s.Checksum != want {
			return nil, fmt.Errorf("checkpoint: checksum mismatch (snapshot corrupt or edited): got %s want %s",
				s.Checksum, want)
		}
	}
	if len(s.Machines) == 0 {
		return nil, fmt.Errorf("checkpoint: no machines")
	}
	if s.Layout.MachinesPerRack <= 0 {
		return nil, fmt.Errorf("checkpoint: invalid machines_per_rack %d", s.Layout.MachinesPerRack)
	}
	if s.Layout.RacksPerCluster <= 0 {
		return nil, fmt.Errorf("checkpoint: invalid racks_per_cluster %d", s.Layout.RacksPerCluster)
	}
	names := make(map[string]int, len(s.Machines))
	rackSize := map[string]int{}
	rackCluster := map[string]string{}
	subRacks := map[string]map[string]bool{}
	down := make(map[int]bool)
	for i, m := range s.Machines {
		if m.Name == "" || m.Rack == "" || m.Cluster == "" {
			return nil, fmt.Errorf("checkpoint: machine %d: empty name, rack or cluster", i)
		}
		if _, dup := names[m.Name]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate machine name %q", m.Name)
		}
		names[m.Name] = i
		if m.CPUMilli <= 0 || m.MemMB <= 0 {
			return nil, fmt.Errorf("checkpoint: machine %q has invalid capacity (%d CPU milli, %d mem MB)",
				m.Name, m.CPUMilli, m.MemMB)
		}
		if prev, ok := rackCluster[m.Rack]; ok && prev != m.Cluster {
			return nil, fmt.Errorf("checkpoint: rack %q claimed by sub-clusters %q and %q", m.Rack, prev, m.Cluster)
		}
		rackCluster[m.Rack] = m.Cluster
		rackSize[m.Rack]++
		if subRacks[m.Cluster] == nil {
			subRacks[m.Cluster] = map[string]bool{}
		}
		subRacks[m.Cluster][m.Rack] = true
		if m.Down {
			down[i] = true
		}
	}
	// Layout must agree with the machine list: no rack or sub-cluster
	// exceeds it, and the maxima match exactly (a too-large layout is
	// as corrupt as a too-small one).
	maxRack, maxSub := 0, 0
	for _, n := range rackSize {
		if n > maxRack {
			maxRack = n
		}
	}
	for _, racks := range subRacks {
		if len(racks) > maxSub {
			maxSub = len(racks)
		}
	}
	if maxRack != s.Layout.MachinesPerRack {
		return nil, fmt.Errorf("checkpoint: layout machines_per_rack %d disagrees with machine list (largest rack has %d)",
			s.Layout.MachinesPerRack, maxRack)
	}
	if maxSub != s.Layout.RacksPerCluster {
		return nil, fmt.Errorf("checkpoint: layout racks_per_cluster %d disagrees with machine list (largest sub-cluster has %d racks)",
			s.Layout.RacksPerCluster, maxSub)
	}

	placed := make(map[string]bool, len(s.Placements))
	for _, p := range s.Placements {
		if p.Container == "" {
			return nil, fmt.Errorf("checkpoint: placement with empty container ID")
		}
		if placed[p.Container] {
			return nil, fmt.Errorf("checkpoint: duplicate placement for container %s", p.Container)
		}
		placed[p.Container] = true
		idx := int(p.Machine)
		if idx < 0 || idx >= len(s.Machines) {
			return nil, fmt.Errorf("checkpoint: placement of %s on machine %d out of range", p.Container, p.Machine)
		}
		if down[idx] {
			return nil, fmt.Errorf("checkpoint: placement of %s on down machine %s", p.Container, s.Machines[idx].Name)
		}
	}
	undeployed := make(map[string]bool, len(s.Undeployed))
	for _, id := range s.Undeployed {
		if id == "" {
			return nil, fmt.Errorf("checkpoint: empty container ID in undeployed ledger")
		}
		if undeployed[id] {
			return nil, fmt.Errorf("checkpoint: duplicate undeployed entry %s", id)
		}
		undeployed[id] = true
		if placed[id] {
			return nil, fmt.Errorf("checkpoint: container %s both placed and undeployed", id)
		}
	}
	seenStranded := make(map[string]bool, len(s.Stranded))
	for _, id := range s.Stranded {
		if id == "" {
			return nil, fmt.Errorf("checkpoint: empty container ID in stranded ledger")
		}
		if seenStranded[id] {
			return nil, fmt.Errorf("checkpoint: duplicate stranded entry %s", id)
		}
		seenStranded[id] = true
		if !undeployed[id] {
			return nil, fmt.Errorf("checkpoint: stranded container %s not in the undeployed ledger", id)
		}
	}
	seenReq := make(map[string]bool, len(s.Requeues))
	for _, rq := range s.Requeues {
		if rq.Container == "" {
			return nil, fmt.Errorf("checkpoint: empty container ID in requeue ledger")
		}
		if seenReq[rq.Container] {
			return nil, fmt.Errorf("checkpoint: duplicate requeue entry %s", rq.Container)
		}
		seenReq[rq.Container] = true
		if rq.Count <= 0 {
			return nil, fmt.Errorf("checkpoint: container %s has non-positive requeue count %d", rq.Container, rq.Count)
		}
	}
	seenIL := make(map[string]bool, len(s.ILFailed))
	for _, app := range s.ILFailed {
		if app == "" {
			return nil, fmt.Errorf("checkpoint: empty app ID in IL cache ledger")
		}
		if seenIL[app] {
			return nil, fmt.Errorf("checkpoint: duplicate IL cache entry %s", app)
		}
		seenIL[app] = true
	}
	return &s, nil
}

// State decodes the snapshot into what a core restore takes: a fresh
// topology via FromSpecs (heterogeneous capacities, down machines
// marked before any replay) and the session state to replay onto it —
// through core.RestoreSession or core.RestoreSharded, the caller's
// choice of shape.
func (s *SessionSnapshot) State() (*topology.Cluster, *core.SessionState, error) {
	specs := make([]topology.MachineSpec, len(s.Machines))
	for i, m := range s.Machines {
		specs[i] = topology.MachineSpec{
			Name:     m.Name,
			Rack:     m.Rack,
			Cluster:  m.Cluster,
			Capacity: resource.Milli(m.CPUMilli, m.MemMB),
			Down:     m.Down,
		}
	}
	cluster, err := topology.FromSpecs(specs)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: restore topology: %w", err)
	}
	st := &core.SessionState{
		Assignment: make(map[string]topology.MachineID, len(s.Placements)),
		Undeployed: append([]string(nil), s.Undeployed...),
		Stranded:   append([]string(nil), s.Stranded...),
		Requeues:   make(map[string]int, len(s.Requeues)),
		ILFailed:   append([]string(nil), s.ILFailed...),
	}
	for _, p := range s.Placements {
		if _, dup := st.Assignment[p.Container]; dup {
			return nil, nil, fmt.Errorf("checkpoint: duplicate placement for container %s", p.Container)
		}
		st.Assignment[p.Container] = p.Machine
	}
	for _, rq := range s.Requeues {
		st.Requeues[rq.Container] = rq.Count
	}
	return cluster, st, nil
}

// Restore rebuilds a live unsharded session from the snapshot:
// State, then core.RestoreSession replaying every placement through
// the scheduler's own place path.  The workload must be the universe
// the snapshot was captured from.
func (s *SessionSnapshot) Restore(opts core.Options, w *workload.Workload) (*core.Session, *topology.Cluster, error) {
	cluster, st, err := s.State()
	if err != nil {
		return nil, nil, err
	}
	sess, err := core.RestoreSession(opts, w, cluster, st)
	if err != nil {
		return nil, nil, err
	}
	return sess, cluster, nil
}

// syncDir fsyncs a directory so a completed rename is durable.  It is
// a seam (package variable) so tests can observe that WriteFile really
// syncs the parent directory and can inject sync failures.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFile persists the snapshot crash-safely: write to a temp file
// in the destination directory, fsync, rename over the target, then
// fsync the directory.  A crash mid-write leaves either the old
// snapshot or none — never a truncated one.  The directory fsync is
// what makes the rename itself durable: without it, a crash right
// after the rename can roll the directory entry back to the old
// snapshot or to nothing at all, losing a checkpoint the caller was
// told had been written.
func WriteFile(path string, s *SessionSnapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := s.Write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}

// ReadFile loads and validates a session snapshot from disk.
func ReadFile(path string) (*SessionSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open: %w", err)
	}
	defer f.Close()
	return ReadSession(f)
}
