package core

import (
	"time"

	"aladdin/internal/obs"
	"aladdin/internal/topology"
)

// coreMetrics bundles the scheduler's instrument handles.  It is held
// by value; the zero value (all-nil handles, on=false) is the
// disabled configuration — every record call is a nil-receiver no-op
// and, because `on` also gates the phase clock reads, disabled
// instrumentation adds no wall-clock reads to the hot path measured
// in PR 1.
type coreMetrics struct {
	on bool

	// Phase latency histograms, microseconds.
	placeBatch *obs.Histogram
	searchLat  *obs.Histogram
	migLat     *obs.Histogram
	preLat     *obs.Histogram
	auditLat   *obs.Histogram
	failLat    *obs.Histogram
	restoreLat *obs.Histogram

	// Search-path counters: IL cache outcomes, DL early cutoffs, and
	// which search implementation answered.
	ilHits        *obs.Counter
	ilMisses      *obs.Counter
	dlCutoffs     *obs.Counter
	searchIndexed *obs.Counter
	searchNaive   *obs.Counter
	relocMemoHits *obs.Counter

	// Pipeline outcome counters.
	placements     *obs.Counter
	migrations     *obs.Counter
	preemptions    *obs.Counter
	consolidations *obs.Counter
	corruptions    *obs.Counter
	failures       *obs.Counter
	recoveries     *obs.Counter
	restores       *obs.Counter

	// Live-state gauges.
	placedGauge  *obs.Gauge
	machinesUp   *obs.Gauge
	machinesDown *obs.Gauge
}

// newCoreMetrics registers the scheduler's metric families on reg; a
// nil registry yields the disabled zero value.  A non-empty label set
// (Options.MetricLabels) scopes every series, so per-tenant sessions
// sharing one registry keep distinct counters and gauges.
func newCoreMetrics(reg *obs.Registry, labels obs.Labels) coreMetrics {
	if reg == nil {
		return coreMetrics{}
	}
	lat := obs.LatencyBucketsUS
	histogram := func(name, help string) *obs.Histogram {
		return reg.LabeledHistogram(name, help, lat, labels)
	}
	counter := func(name, help string) *obs.Counter {
		return reg.LabeledCounter(name, help, labels)
	}
	gauge := func(name, help string) *obs.Gauge {
		return reg.LabeledGauge(name, help, labels)
	}
	return coreMetrics{
		on: true,

		placeBatch: histogram("aladdin_place_batch_duration_us", "wall-clock latency of one Place/Schedule batch, microseconds"),
		searchLat:  histogram("aladdin_search_duration_us", "latency of one findMachine path search, microseconds"),
		migLat:     histogram("aladdin_migration_duration_us", "latency of one migration/defragmentation rescue attempt, microseconds"),
		preLat:     histogram("aladdin_preemption_duration_us", "latency of one preemption rescue attempt, microseconds"),
		auditLat:   histogram("aladdin_audit_duration_us", "latency of one AuditInvariants pass, microseconds"),
		failLat:    histogram("aladdin_fail_machine_duration_us", "eviction plus re-placement latency of one machine failure, microseconds"),
		restoreLat: histogram("aladdin_restore_duration_us", "latency of one RestoreSession warm restart, microseconds"),

		ilHits:        counter("aladdin_il_cache_hits_total", "searches skipped by the isomorphism-limiting cache"),
		ilMisses:      counter("aladdin_il_cache_misses_total", "searches that ran because the IL cache had no valid entry"),
		dlCutoffs:     counter("aladdin_dl_cutoffs_total", "searches truncated at the first feasible machine by depth limiting"),
		searchIndexed: counter("aladdin_search_indexed_total", "path searches answered by the residual-capacity index"),
		searchNaive:   counter("aladdin_search_naive_total", "path searches answered by the naive linear scan"),
		relocMemoHits: counter("aladdin_relocation_memo_hits_total", "rescue relocation searches answered from the class memo instead of a descent (not counted as searches)"),

		placements:     counter("aladdin_placements_total", "augmenting paths routed (containers placed, including rescue re-placements)"),
		migrations:     counter("aladdin_migrations_total", "containers relocated by migration and defragmentation"),
		preemptions:    counter("aladdin_preemptions_total", "containers evicted by preemption"),
		consolidations: counter("aladdin_consolidations_total", "containers relocated by consolidation drains"),
		corruptions:    counter("aladdin_corruptions_total", "rollback failures that poisoned the scheduler state"),
		failures:       counter("aladdin_machine_failures_total", "machines taken out of service by FailMachine"),
		recoveries:     counter("aladdin_machine_recoveries_total", "machines returned to service by RecoverMachine"),
		restores:       counter("aladdin_restores_total", "sessions rebuilt from a checkpoint by RestoreSession"),

		placedGauge:  gauge("aladdin_flow_containers_placed", "containers currently holding an augmenting path in the flow network"),
		machinesUp:   gauge("aladdin_machines_up", "machines currently in service"),
		machinesDown: gauge("aladdin_machines_down", "machines currently failed"),
	}
}

// initGauges seeds the live-state gauges from cluster ground truth at
// session/run construction.
func (m coreMetrics) initGauges(cluster *topology.Cluster) {
	if !m.on {
		return
	}
	var up, down int64
	for _, machine := range cluster.Machines() {
		if machine.Up() {
			up++
		} else {
			down++
		}
	}
	m.machinesUp.Set(up)
	m.machinesDown.Set(down)
}

// restored records one warm restart that began at start.
func (m coreMetrics) restored(opts Options, start time.Time) {
	if !m.on {
		return
	}
	m.restoreLat.Observe(opts.now().Sub(start).Microseconds())
	m.restores.Inc()
}

// corrupt wraps a rescue-step failure as a CorruptionError, counting
// it and emitting the corruption trace event first — a corrupted
// session is exactly what an operator needs paged about.
//
//aladdin:hotpath-stop rollback bookkeeping: reached only when a rescue's own undo step failed, and builds the error it reports
func (r *run) corrupt(op string, err error) error {
	r.met.corruptions.Inc()
	r.trc.Emit(obs.Event{Kind: obs.EvRollbackCorruption, Detail: op, Machine: -1})
	return corrupt(op, err)
}
