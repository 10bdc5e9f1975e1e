package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// testScale shrinks the universe a hundredfold: ~1,080 containers on
// 200 machines, so every workload runs in well under a second.
var testScale = scale{factor: 100, machines: 200, preloadBatch: 200, fillBatch: 10, removeStride: 7}

// testUnits is each workload's op-unit count at testScale.
var testUnits = map[string]int{"churn_plain": 20, "churn_sharded": 20, "fill_tight": 12, "ops_mixed": 8}

func testUniverse(t *testing.T) *universe {
	t.Helper()
	u, err := newUniverse(testScale)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(".", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// inprocLauncher stands in for the binary: the same server package on
// loopback inside the test process.
func inprocLauncher(wrap func(http.Handler) http.Handler) launcher {
	return func(traceFile string) (*target, error) {
		w, _, err := readTrace(traceFile)
		if err != nil {
			return nil, err
		}
		p, err := startInproc(w, wrap)
		if err != nil {
			return nil, err
		}
		return &target{base: p.base, pid: os.Getpid(), stop: func() { p.stop() }}, nil
	}
}

// checkMetrics requires exactly the declared metrics, each with its
// declared unit and a finite value.
func checkMetrics(t *testing.T, row *resultRow, defs []metricDef) {
	t.Helper()
	if !row.Correct {
		t.Fatalf("%s: run incorrect: %v", row.Workload, row.Failures)
	}
	if len(row.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", row.Workload, len(row.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := row.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", row.Workload, d.name)
		case v.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", row.Workload, d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s is %v", row.Workload, d.name, v.Value)
		}
	}
}

// counts extracts the metrics that must repeat exactly.
func counts(row *resultRow) map[string]float64 {
	out := make(map[string]float64)
	for name, v := range row.Metrics {
		for _, d := range append(endToEnd, perLayer...) {
			if d.name == name && (d.unit == "count" || name == "deployed_frac" || name == "core.il_hit_frac" || name == "checkpoint.bytes") {
				out[name] = v.Value
			}
		}
	}
	return out
}

func TestEndToEndMetrics(t *testing.T) {
	u, e := testUniverse(t), testEnv(t)
	for i := range workloads {
		spec := &workloads[i]
		var rows [2]*resultRow
		for k := range rows {
			row, err := runE2E(e, inprocLauncher(nil), spec, u, 7, 1, testUnits[spec.name])
			if err != nil {
				t.Fatalf("%s: %v", spec.name, err)
			}
			checkMetrics(t, row, endToEnd)
			rows[k] = row
		}
		if a, b := counts(rows[0]), counts(rows[1]); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counts differ between two runs of one seed:\n%v\n%v", spec.name, a, b)
		}
		if rows[0].OpsFailed != 0 || rows[0].OpsAttempted == 0 {
			t.Errorf("%s: %d attempted, %d failed", spec.name, rows[0].OpsAttempted, rows[0].OpsFailed)
		}
	}
}

func TestTracedMetrics(t *testing.T) {
	u, e := testUniverse(t), testEnv(t)
	for i := range workloads {
		spec := &workloads[i]
		var rows [2]*resultRow
		for k := range rows {
			row, err := runTraced(e, tracedSpec(spec), u, 7, 1, testUnits[spec.name])
			if err != nil {
				t.Fatalf("%s: %v", spec.name, err)
			}
			checkMetrics(t, row, perLayer)
			rows[k] = row
		}
		if a, b := counts(rows[0]), counts(rows[1]); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counts differ between two traced runs of one seed:\n%v\n%v", spec.name, a, b)
		}
		if _, err := os.Stat(e.outDir + "/trace-" + spec.name + ".jsonl"); err != nil {
			t.Errorf("%s: no span file: %v", spec.name, err)
		}
	}
}

func TestSeedChangesOps(t *testing.T) {
	u := testUniverse(t)
	for i := range workloads {
		spec := &workloads[i]
		plan := func(seed int64) *plan {
			pl, err := buildPlan(spec, u, seed, testUnits[spec.name], "ckpt")
			if err != nil {
				t.Fatal(err)
			}
			return pl
		}
		if !reflect.DeepEqual(plan(1).ops, plan(1).ops) {
			t.Errorf("%s: one seed, two op sequences", spec.name)
		}
		if reflect.DeepEqual(plan(1).ops, plan(2).ops) {
			t.Errorf("%s: seeds 1 and 2 give the same op sequence", spec.name)
		}
	}
}

// TestFailedOpIsCounted injects one 409 into the timed phase.
func TestFailedOpIsCounted(t *testing.T) {
	u, e := testUniverse(t), testEnv(t)
	spec, err := findWorkload("churn_plain")
	if err != nil {
		t.Fatal(err)
	}
	var singles atomic.Int32 // single-container places: the timed ones
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/t/"+tenantName+"/place") && r.ContentLength < 100 && singles.Add(1) == 5 {
				http.Error(w, "injected", http.StatusConflict)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	row, err := runE2E(e, inprocLauncher(wrap), spec, u, 7, 1, testUnits[spec.name])
	if err != nil {
		t.Fatal(err)
	}
	if row.Correct || row.OpsFailed != 1 || len(row.Metrics) != 0 {
		t.Errorf("correct=%v ops_failed=%d metrics=%d; want an incorrect run with 1 failed op and no numbers", row.Correct, row.OpsFailed, len(row.Metrics))
	}
}

func TestCompare(t *testing.T) {
	mk := func(ops float64) resultRow {
		return resultRow{Workload: "churn_plain", Correct: true, Metrics: map[string]metricValue{
			"ops_per_s": {Value: ops, Unit: "1/s"},
		}}
	}
	write := func(rows ...resultRow) string {
		path := t.TempDir() + "/rows.jsonl"
		for i := range rows {
			if err := appendRow(path, &rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	noisy := mk(10)
	noisy.Host.NoisyHost = true
	a := write(mk(100), mk(101), mk(99), mk(100), mk(100), noisy)
	for _, tc := range []struct {
		name    string
		b       string
		verdict string
		outside bool
	}{
		{"same", write(mk(99), mk(100), mk(101), mk(100), mk(100)), "within", false},
		{"slower", write(mk(80), mk(81), mk(79), mk(80), mk(80)), "outside", true},
		{"scattered", write(mk(70), mk(100), mk(130), mk(85), mk(115)), "unresolved", false},
	} {
		var out strings.Builder
		outside, err := compareFiles(&out, a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if outside != tc.outside || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: outside=%v, output:\n%s", tc.name, outside, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

// TestBenchmarkJSONMatchesSpec keeps the contract file at the repo root
// and the tables in spec.go from drifting apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end-to-end/per-layer, spec.go %d/%d/%d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in spec.go", i, w.Name, workloads[i].name)
		}
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in spec.go", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in spec.go", i, m, d)
		}
	}
}
