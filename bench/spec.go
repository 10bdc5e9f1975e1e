package main

import "fmt"

// opKind names one request type of the server's HTTP surface.
type opKind int

const (
	opPlace opKind = iota
	opRemove
	opFail
	opRecover
	opCheckpoint
	opRebalance
	opAssignments
	opExplain
	opRestore
	numKinds
)

var kindNames = [numKinds]string{
	"place", "remove", "fail", "recover", "checkpoint",
	"rebalance", "assignments", "explain", "restore",
}

func (k opKind) String() string { return kindNames[k] }

// op is one request of a workload's timed phase.
type op struct {
	kind    opKind
	ids     []string // place: the batch; remove, explain: one id
	machine int      // fail, recover
}

// scale sizes a run.  The benchmark runs at the paper's full scale
// (factor 1: 13,056 apps, ~108k containers, 10,000 machines); the
// harness self-test shrinks everything by one factor.
type scale struct {
	factor       int // trace scale divisor
	machines     int // the loose cluster
	preloadBatch int // containers per set-up /place
	fillBatch    int // containers per timed fill_tight /place
	removeStride int // ops_mixed: distance between removed containers in arrival order
}

var fullScale = scale{factor: 1, machines: 10000, preloadBatch: 2000, fillBatch: 100, removeStride: 53}

// workloadSpec is one named workload.  Op counts are fixed per
// (seed, seconds): unitsPerSecond is the seed commit's measured rate
// on the 2-core reference host, so `-seconds N` asks for about N
// seconds of timed work and the count — not the clock — ends the run.
type workloadSpec struct {
	name, why string
	tight     bool // cluster sized to the universe's need + 1/256, not scale.machines
	shards    int
	preload   float64 // share of the universe placed during set-up
	primary   opKind
	// A run is rounds × (set-up, timed phase, gates), each round on the
	// same plan.  With freshServer every round starts its own server
	// process; without, one server lives through all rounds and each
	// round creates and deletes its tenant.  Several rounds make
	// setup_s a median and average the process-to-process differences
	// (heap layout, GC phase) that a single server would carry through a
	// whole run.
	rounds         int
	freshServer    bool
	restoreGate    bool    // end each round with checkpoint → restore → compare
	unitsPerSecond float64 // over all rounds
	minUnits       int     // floor per round: a round's share of ISSUE 12's primary-sample floors
}

var workloads = []workloadSpec{
	{
		name: "churn_plain", primary: opPlace, preload: 0.80, rounds: 5, freshServer: true,
		unitsPerSecond: 90, minUnits: 200, // place+remove pairs
		why: "steady arrival/departure of single containers at 10,000 machines, unsharded: per-request server cost and the core read-view rebuild, almost no search",
	},
	{
		name: "churn_sharded", primary: opPlace, preload: 0.80, shards: 4, rounds: 5, freshServer: true,
		unitsPerSecond: 32, minUnits: 100, // place+remove pairs
		why: "the identical op sequence through a 4-shard tenant: the same layers used through ShardedSession, where a change that helps the plain session at the wrapper's cost shows",
	},
	{
		name: "fill_tight", primary: opPlace, preload: 0.85, tight: true, rounds: 3,
		unitsPerSecond: 13.8, minUnits: 100, // 100-container batches
		why: "the last 15 % of a flash-sale burst onto a cluster with 0.4 % headroom: search plus migration rescue dominate, server per-request cost is about a tenth",
	},
	{
		name: "ops_mixed", primary: opFail, preload: 0.80, rounds: 5, freshServer: true, restoreGate: true,
		unitsPerSecond: 5.5, minUnits: 22, // operator cycles
		why: "removes, machine fail/recover, checkpoint, rebalance cycle, full-assignment read and explain beside each other: checkpoint, rebalance and large JSON responses, which the other three never touch",
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// units is the per-round op-unit count for a run of the given length.
func (s *workloadSpec) units(seconds int) int {
	n := int(float64(seconds)*s.unitsPerSecond/float64(s.rounds) + 0.5)
	if n < s.minUnits {
		n = s.minUnits
	}
	return n
}

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd lists the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"primary_p50_ms", "ms", "lower", 0.15},
	{"primary_p90_ms", "ms", "lower", 0.15},
	{"cpu_ms_per_op", "ms", "lower", 0.15},
	{"server_rss_mb", "MB", "lower", 0.10},
	{"deployed_frac", "ratio", "higher", 0},
	{"machines_used", "count", "lower", 0.01},
	{"disruptions", "count", "lower", 0.05},
}

// perLayer lists the metrics of the traced run.  Every workload emits
// all of them; a layer a workload never enters reports 0.
var perLayer = []metricDef{
	{name: "client.place_p99_ms", unit: "ms", better: "lower"},
	{name: "client.place_max_ms", unit: "ms", better: "lower"},
	{name: "client.remove_p50_ms", unit: "ms", better: "lower"},
	{name: "client.remove_p90_ms", unit: "ms", better: "lower"},
	{name: "client.fail_p50_ms", unit: "ms", better: "lower"},
	{name: "client.recover_p50_ms", unit: "ms", better: "lower"},
	{name: "client.checkpoint_p50_ms", unit: "ms", better: "lower"},
	{name: "client.rebalance_p50_ms", unit: "ms", better: "lower"},
	{name: "client.assignments_p50_ms", unit: "ms", better: "lower"},
	{name: "client.explain_p50_ms", unit: "ms", better: "lower"},
	{name: "client.restore_ms", unit: "ms", better: "lower"},
	{name: "client.tenant_create_ms", unit: "ms", better: "lower"},
	{name: "client.containers_per_s", unit: "1/s", better: "higher"},
	{name: "http.self_ms", unit: "ms", better: "lower"},
	{name: "http.req_bytes", unit: "B", better: "lower"},
	{name: "http.resp_bytes", unit: "B", better: "lower"},
	{name: "server.handler_ms", unit: "ms", better: "lower"},
	{name: "server.self_ms", unit: "ms", better: "lower"},
	{name: "server.self_frac", unit: "ratio", better: "lower"},
	{name: "server.self_nonneg_frac", unit: "ratio", better: "higher"},
	{name: "server.non2xx", unit: "count", better: "lower"},
	{name: "core.place_ms", unit: "ms", better: "lower"},
	{name: "core.place_us_per_container", unit: "us", better: "lower"},
	{name: "core.view_ms", unit: "ms", better: "lower"},
	{name: "core.remove_ms", unit: "ms", better: "lower"},
	{name: "core.fail_ms", unit: "ms", better: "lower"},
	{name: "core.recover_ms", unit: "ms", better: "lower"},
	{name: "core.consolidate_ms", unit: "ms", better: "lower"},
	{name: "core.explain_ms", unit: "ms", better: "lower"},
	{name: "core.new_session_ms", unit: "ms", better: "lower"},
	{name: "core.new_sharded_ms", unit: "ms", better: "lower"},
	{name: "core.shard_wall_over_critical", unit: "ratio", better: "lower"},
	{name: "core.explored_per_container", unit: "count", better: "lower"},
	{name: "core.migrations", unit: "count", better: "lower"},
	{name: "core.preemptions", unit: "count", better: "lower"},
	{name: "core.undeployed", unit: "count", better: "lower"},
	{name: "core.evicted", unit: "count", better: "lower"},
	{name: "core.stranded", unit: "count", better: "lower"},
	{name: "core.il_hit_frac", unit: "ratio", better: "higher"},
	{name: "core.dl_cutoffs", unit: "count", better: "higher"},
	{name: "checkpoint.capture_ms", unit: "ms", better: "lower"},
	{name: "checkpoint.write_ms", unit: "ms", better: "lower"},
	{name: "checkpoint.bytes", unit: "B", better: "lower"},
	{name: "checkpoint.restore_ms", unit: "ms", better: "lower"},
	{name: "rebalance.cycle_ms", unit: "ms", better: "lower"},
	{name: "rebalance.moves", unit: "count", better: "lower"},
	{name: "rebalance.skipped", unit: "count", better: "lower"},
	{name: "topology.build_ms", unit: "ms", better: "lower"},
	{name: "trace.generate_ms", unit: "ms", better: "lower"},
	{name: "trace.read_ms", unit: "ms", better: "lower"},
	{name: "workload.arrange_ms", unit: "ms", better: "lower"},
	{name: "obs.render_ms", unit: "ms", better: "lower"},
	{name: "obs.series", unit: "count", better: "lower"},
	{name: "tracing.overhead_frac", unit: "ratio", better: "lower"},
	// Shares of client.request time inside the window; they sum to 1.
	{name: "share.http", unit: "ratio", better: "lower"},
	{name: "share.server", unit: "ratio", better: "lower"},
	{name: "share.core_view", unit: "ratio", better: "lower"},
	{name: "share.core_other", unit: "ratio", better: "lower"},
	{name: "share.checkpoint", unit: "ratio", better: "lower"},
	{name: "share.rebalance", unit: "ratio", better: "lower"},
}
