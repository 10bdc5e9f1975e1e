package main

import (
	"fmt"
	"os"
	"path/filepath"

	"aladdin/internal/trace"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultRow is one workload run as written to the result file.
type resultRow struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Seconds      int                    `json:"seconds"`
	Traced       bool                   `json:"traced"`
	Correct      bool                   `json:"correct"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	Failures     []string               `json:"failures,omitempty"`
	Samples      map[string]int         `json:"samples"` // latency samples per request kind
	Metrics      map[string]metricValue `json:"metrics"`
	Host         hostRecord             `json:"host"`
}

// env is what every run of one invocation shares.
type env struct {
	outDir string // results and span files (bench/out)
	tmpDir string // outDir/tmp: binary, trace file, checkpoints, server logs
	host   hostRecord
}

func newEnv(root, outDir string) (*env, error) {
	e := &env{outDir: outDir, tmpDir: filepath.Join(outDir, "tmp")}
	if err := os.MkdirAll(e.tmpDir, 0o755); err != nil {
		return nil, err
	}
	e.host = readHost(root)
	return e, nil
}

// writeTrace writes the universe where the server will read it.
func (e *env) writeTrace(u *universe) (string, error) {
	path := filepath.Join(e.tmpDir, "universe.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := trace.Write(f, u.w); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// warmSpawn starts the server once, places a thousand containers on
// the default tenant and stops it, so the first measured set-up does
// not pay for a cold binary and page cache.
func warmSpawn(launch launcher, traceFile string, u *universe) error {
	p, err := launch(traceFile)
	if err != nil {
		return err
	}
	defer p.stop()
	h := newHTTPBackend(p.base, nil)
	defer h.close()
	n := 1000
	if n > len(u.order) {
		n = len(u.order)
	}
	return h.call("warm", "POST", "/place", mustJSON(map[string]any{"containers": u.order[:n]}), 200)
}

// runE2E measures one workload against servers from launch — the real
// binary, except in the harness's own test.
func runE2E(e *env, launch launcher, spec *workloadSpec, u *universe, seed int64, seconds, units int) (*resultRow, error) {
	traceFile, err := e.writeTrace(u)
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Join(e.tmpDir, "checkpoint-"+spec.name+".json")
	pl, err := buildPlan(spec, u, seed, units, ckpt)
	if err != nil {
		return nil, err
	}
	if err := warmSpawn(launch, traceFile, u); err != nil {
		return nil, fmt.Errorf("warm-up spawn: %w", err)
	}

	row := newRow(e, spec, seed, seconds, false)
	r := &runner{spec: spec, pl: pl, open: func() (*session, error) {
		t, err := launch(traceFile)
		if err != nil {
			return nil, err
		}
		h := newHTTPBackend(t.base, nil)
		return &session{b: h, target: t, close: func() error {
			h.close()
			t.stop()
			return nil
		}}, nil
	}}
	if err := r.run(ckpt); err != nil {
		if r.failed == 0 {
			return nil, err
		}
		// Failed requests, then a gate that could not hold: the run is
		// incorrect, not the harness broken.
		r.failures = append(r.failures, err.Error())
	}
	row.fillCounts(r)
	row.Correct = r.failed == 0
	if !row.Correct {
		return row, nil
	}
	// Medians over the rounds, pooled samples for the percentiles.
	primary := r.lat[spec.primary]
	row.set("setup_s", median(r.setups))
	row.set("ops_per_s", median(r.roundRate))
	row.set("primary_p50_ms", median(primary))
	row.set("primary_p90_ms", percentile(primary, 90))
	row.set("cpu_ms_per_op", median(r.roundCPU))
	row.set("server_rss_mb", median(r.roundRSS))
	row.set("deployed_frac", float64(r.gaugePlaced)/float64(r.want))
	row.set("machines_used", float64(r.gaugeUsed))
	// Plus one: two of the four workloads move nothing, and a ratio to
	// a baseline of zero is undefined.
	row.set("disruptions", float64(1+r.disruptions))
	return row, nil
}

func newRow(e *env, spec *workloadSpec, seed int64, seconds int, traced bool) *resultRow {
	return &resultRow{
		Workload: spec.name, Seed: seed, Seconds: seconds, Traced: traced,
		Samples: make(map[string]int), Metrics: make(map[string]metricValue),
		Host: e.host,
	}
}

func (row *resultRow) fillCounts(r *runner) {
	row.OpsAttempted, row.OpsFailed, row.Failures = r.attempted, r.failed, r.failures
	for k, xs := range r.lat {
		if len(xs) > 0 {
			row.Samples[opKind(k).String()] = len(xs)
		}
	}
}

// set stores a metric under its declared unit.
func (row *resultRow) set(name string, v float64) {
	defs := endToEnd
	if row.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		if d.name == name {
			row.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("undeclared metric " + name) // a harness bug: every metric is declared in spec.go
}
