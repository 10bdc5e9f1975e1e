package topology

import (
	"fmt"

	"aladdin/internal/resource"
)

// MachineClass describes one hardware generation in a heterogeneous
// cluster (the paper's stated future work: "extend the flow-based
// model to support heterogeneous workloads").  The flow network model
// needs no change — capacities are per-machine vectors already — so
// heterogeneity is purely a construction concern.
type MachineClass struct {
	// Name labels the class, e.g. "gen1-32c".
	Name string
	// Count is how many machines of this class to build.
	Count int
	// Capacity is the per-machine capacity.
	Capacity resource.Vector
}

// HeteroConfig describes a heterogeneous cluster layout.
type HeteroConfig struct {
	Classes []MachineClass
	// MachinesPerRack / RacksPerCluster as in Config; racks never mix
	// classes (the common datacenter reality: a rack is one SKU).
	MachinesPerRack int
	RacksPerCluster int
}

// NewHeterogeneous builds a cluster whose racks are grouped by
// machine class.
func NewHeterogeneous(cfg HeteroConfig) (*Cluster, error) {
	perRack := cfg.MachinesPerRack
	if perRack <= 0 {
		perRack = 40
	}
	perCluster := cfg.RacksPerCluster
	if perCluster <= 0 {
		perCluster = 25
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("topology: heterogeneous cluster needs at least one class")
	}
	c := newCluster()
	id := 0
	rackIdx := 0
	for ci, class := range cfg.Classes {
		if class.Count <= 0 {
			return nil, fmt.Errorf("topology: class %q has count %d", class.Name, class.Count)
		}
		if class.Capacity.Zero() {
			return nil, fmt.Errorf("topology: class %q has zero capacity", class.Name)
		}
		for k := 0; k < class.Count; k++ {
			// New rack when the previous is full or the class changes
			// (k == 0 forces a fresh rack per class).
			if k%perRack == 0 {
				rackIdx++
			}
			rackName := fmt.Sprintf("rack-%04d", rackIdx-1)
			subIdx := (rackIdx - 1) / perCluster
			subName := fmt.Sprintf("cluster-%02d", subIdx)
			name := fmt.Sprintf("machine-%05d-%s", id, class.Name)
			// Rack indexes only grow, so add's one error (a rack in two
			// sub-clusters) cannot occur.
			_ = c.add(NewMachine(MachineID(id), name, rackName, subName, class.Capacity))
			id++
		}
		_ = ci
	}
	return c, nil
}

// Classes summarises the distinct capacities present in the cluster,
// in first-seen order.
func (c *Cluster) Classes() []resource.Vector {
	var out []resource.Vector
	seen := map[resource.Vector]bool{}
	for _, m := range c.machines {
		if !seen[m.Capacity()] {
			seen[m.Capacity()] = true
			out = append(out, m.Capacity())
		}
	}
	return out
}
