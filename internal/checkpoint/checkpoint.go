// Package checkpoint persists and restores the live state of a
// scheduling session — the cluster layout, every placement, and the
// workload reference — so long-running simulations (and a production
// scheduler manager) can stop and resume without replaying history.
//
// The format is versioned JSON; the workload itself is stored by
// reference (its trace must be preserved alongside, which the paper's
// CM/MM split also implies: the scheduler manager snapshots only the
// assignment state).
//
// SessionSnapshot (CaptureSession/SessionSnapshot.Restore) is the
// warm-restart format, version 2: per-machine capacities and down
// state, the session's undeployed and requeue ledgers, a layout block
// that is validated — never defaulted — on restore, a content
// checksum, and atomic write-temp-then-rename persistence (WriteFile).
// Version 1 (a cluster-level format without availability or ledgers)
// is no longer read: ReadSession rejects it by version.
package checkpoint

import "aladdin/internal/topology"

// Placement is one container→machine binding.
type Placement struct {
	Container string             `json:"container"`
	Machine   topology.MachineID `json:"machine"`
}
