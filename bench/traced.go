package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aladdin/internal/core"
	"aladdin/internal/obs"
	"aladdin/internal/server"
	"aladdin/internal/topology"
	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

// tracedSpec shrinks a workload for the traced run, which makes three
// passes over the op sequence (untraced, traced, replay) and has to end
// in about the time of one end-to-end run: two fifths of the rounds
// (2 of 5, 1 of 3).
func tracedSpec(spec *workloadSpec) *workloadSpec {
	short := *spec
	short.rounds = (spec.rounds*2 + 2) / 5
	return &short
}

// spanHandler records a server.handler span around the server's
// ServeHTTP, keyed by the op id the client sent.
type spanHandler struct {
	next http.Handler
	rec  *recorder
}

func (s spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.next.ServeHTTP(w, r)
	s.rec.add(handlerSpan, r.Header.Get(opHeader), "client.request", start, time.Now())
}

// inprocServer is a server.Server built the way cmd/aladdin-server
// builds it, listening on loopback inside the harness process.
type inprocServer struct {
	base string
	hs   *http.Server
	done chan error
}

// readTrace is the binary's start-up: parse the trace file.
func readTrace(path string) (*workload.Workload, time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	t0 := time.Now()
	w, err := trace.Read(f)
	return w, time.Since(t0), err
}

// startInproc serves the workload; wrap, when non-nil, goes around the
// server's handler.
func startInproc(w *workload.Workload, wrap func(http.Handler) http.Handler) (*inprocServer, error) {
	opts := core.DefaultOptions()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	cluster := topology.New(topology.AlibabaConfig(64))
	srv := server.New(core.NewSession(opts, w, cluster), w, cluster, server.WithRegistry(reg))
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &inprocServer{base: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { p.done <- p.hs.Serve(ln) }()
	return p, nil
}

func (p *inprocServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	if serr := <-p.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// addSeries accumulates one exposition's samples into sum.
func addSeries(sum, series map[string]float64) {
	for name, v := range series {
		sum[name] += v
	}
}

// httpPass runs the plan against in-process servers.  With a recorder
// it is the traced pass; without, the untraced reference the tracing
// overhead is measured against.  series receives the sum of each
// server's final /metrics scrape.
func httpPass(spec *workloadSpec, pl *plan, w *workload.Workload, ckpt string, rec *recorder, series map[string]float64) (*runner, int, error) {
	runtime.GC() // every pass starts from the same heap: the previous pass's servers are garbage
	var wrap func(http.Handler) http.Handler
	if rec != nil {
		wrap = func(next http.Handler) http.Handler { return spanHandler{next, rec} }
	}
	non2xx := 0
	r := &runner{spec: spec, pl: pl, open: func() (*session, error) {
		p, err := startInproc(w, wrap)
		if err != nil {
			return nil, err
		}
		h := newHTTPBackend(p.base, rec)
		return &session{b: h, close: func() error {
			final, err := h.scrape("metrics-final")
			if err == nil {
				addSeries(series, final)
			}
			non2xx += h.non2xx
			h.close()
			if serr := p.stop(); err == nil {
				err = serr
			}
			return err
		}}, nil
	}}
	err := r.run(ckpt)
	return r, non2xx, err
}

// runTraced makes the three passes and derives the per-layer metrics.
func runTraced(e *env, spec *workloadSpec, u *universe, seed int64, seconds, units int) (*resultRow, error) {
	traceFile, err := e.writeTrace(u)
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Join(e.tmpDir, "checkpoint-"+spec.name+".json")
	pl, err := buildPlan(spec, u, seed, units, ckpt)
	if err != nil {
		return nil, err
	}
	w, traceRead, err := readTrace(traceFile)
	if err != nil {
		return nil, err
	}
	t, err := tracePasses(spec, pl, w, ckpt)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(e.outDir, "trace-"+spec.name+".jsonl"), t.rec1, t.rec2); err != nil {
		return nil, err
	}

	row := newRow(e, spec, seed, seconds, true)
	row.fillCounts(t.r1)
	row.Correct = t.r1.failed == 0 && t.r0.failed == 0 && t.r2.failed == 0
	if !row.Correct {
		row.Failures = append(append(row.Failures, t.r0.failures...), t.r2.failures...)
		return row, nil
	}
	if err := t.join(); err != nil {
		return nil, fmt.Errorf("trace join: %w", err)
	}
	t.metrics(row)
	row.set("trace.generate_ms", ms(u.generate))
	row.set("workload.arrange_ms", ms(u.arrange))
	row.set("trace.read_ms", ms(traceRead))
	return row, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tracedRun holds the three passes of one traced run.
type tracedRun struct {
	spec       *workloadSpec
	pl         *plan
	r0, r1, r2 *runner
	non2xx     int // pass 1: replies outside 2xx
	rb         *replayBackend
	rec1, rec2 *recorder
	series1    map[string]float64 // pass 1: sum of the servers' final /metrics scrapes
	series2    map[string]float64 // pass 2: sum of the registries, rendered the same way
}

func tracePasses(spec *workloadSpec, pl *plan, w *workload.Workload, ckpt string) (*tracedRun, error) {
	t := &tracedRun{spec: spec, pl: pl, rec1: newRecorder("http"), rec2: newRecorder("replay"),
		series1: make(map[string]float64), series2: make(map[string]float64)}
	var err error
	if t.r0, _, err = httpPass(spec, pl, w, ckpt, nil, make(map[string]float64)); err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	if t.r1, t.non2xx, err = httpPass(spec, pl, w, ckpt, t.rec1, t.series1); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}

	t.rb = &replayBackend{w: w, rec: t.rec2,
		byID: make(map[string]*workload.Container, w.NumContainers()), places: make(map[string]placeInfo)}
	for _, c := range w.Containers() {
		t.rb.byID[c.ID] = c
	}
	runtime.GC()
	// Where the HTTP passes open a server, the replay opens a metrics
	// registry: the counters of the two sides then cover the same rounds.
	t.r2 = &runner{spec: spec, pl: pl, open: func() (*session, error) {
		t.rb.reg = obs.NewRegistry()
		return &session{b: t.rb, close: func() error {
			var buf bytes.Buffer
			if err := t.rb.reg.WritePrometheus(&buf); err != nil {
				return err
			}
			final, err := parseExposition(buf.String())
			addSeries(t.series2, final)
			return err
		}}, nil
	}}
	if err := t.r2.run(ckpt); err != nil {
		return nil, fmt.Errorf("replay pass: %w", err)
	}
	return t, nil
}

// sameWork compares what two passes' op did, leaving out what only one
// side can see.
func sameWork(a, b outcome) bool {
	a.bytes, a.reqBytes, a.respBytes = 0, 0, 0
	b.bytes, b.reqBytes, b.respBytes = 0, 0, 0
	return a == b
}

// join asserts that op i did the same work over HTTP and in the
// replay, which is what lets spans of the two passes be subtracted:
// every per-op outcome is equal, and so is every counter the core and
// the rebalancer keep for the tenant (placements, migrations, IL hits
// and misses, DL cut-offs, searches, consolidations, cycles).
func (t *tracedRun) join() error {
	if len(t.r1.outcomes) != len(t.r2.outcomes) {
		return fmt.Errorf("%d ops over HTTP, %d replayed", len(t.r1.outcomes), len(t.r2.outcomes))
	}
	for i := range t.r1.outcomes {
		if !sameWork(t.r1.outcomes[i], t.r2.outcomes[i]) {
			return fmt.Errorf("op %d: HTTP reply %+v, replay %+v", i, t.r1.outcomes[i], t.r2.outcomes[i])
		}
	}
	compared := 0
	for name, v2 := range t.series2 {
		if !strings.Contains(name, "_total{") {
			continue
		}
		v1, ok := t.series1[name]
		if !ok || v1 != v2 {
			return fmt.Errorf("counter %s: %v over HTTP, %v replayed", name, v1, v2)
		}
		compared++
	}
	if compared == 0 {
		return errors.New("no counters to compare")
	}
	return nil
}

// layerOf maps a replay span to the layer its time is charged to.
func layerOf(name string) string {
	switch {
	case name == "core.view":
		return "core_view"
	case strings.HasPrefix(name, "core."):
		return "core_other"
	default:
		return name[:strings.IndexByte(name, '.')]
	}
}

// metrics fills the row from the spans and counts of the passes.  All
// figures cover the measurement window only (the ops after warm-up).
func (t *tracedRun) metrics(row *resultRow) {
	measured := make(map[string]bool) // op ids inside the window
	warm := int(float64(len(t.pl.ops)) * warmupShare)
	for round := 0; round < t.spec.rounds; round++ {
		for i := warm; i < len(t.pl.ops); i++ {
			measured[fmt.Sprintf("r%d/%d", round, i)] = true
		}
	}

	byName := make(map[string][]float64) // replay span durations, window ops
	setup := make(map[string][]float64)  // replay spans of tenant creation
	children := make(map[string]float64) // per op: time in the calls its handler makes
	layer := make(map[string]float64)    // total ms per layer
	for _, s := range t.rec2.spans {
		switch {
		case measured[s.Op]:
			byName[s.Name] = append(byName[s.Name], s.ms())
			layer[layerOf(s.Name)] += s.ms()
			if s.Parent == handlerSpan {
				children[s.Op] += s.ms()
			} else {
				layer[layerOf(s.Parent)] -= s.ms() // nested: charged once, to the callee
			}
		case s.Op == "tenant-create":
			setup[s.Name] = append(setup[s.Name], s.ms())
		case s.Name == "checkpoint.restore":
			byName[s.Name] = append(byName[s.Name], s.ms())
		}
	}

	client, handler := t.rec1.byOp("client.request"), t.rec1.byOp(handlerSpan)
	var httpSelf, handlerMS, selfMS []float64
	var place placeInfo
	total, nonNeg := 0.0, 0
	for id := range measured {
		c, h := client[id].ms(), handler[id].ms()
		total += c
		httpSelf = append(httpSelf, c-h)
		handlerMS = append(handlerMS, h)
		selfMS = append(selfMS, h-children[id])
		if h >= children[id] {
			nonNeg++
		}
		if p, ok := t.rb.places[id]; ok {
			place.submitted += p.submitted
			place.workUnits += p.workUnits
			place.wall += p.wall
			place.critical += p.critical
		}
	}
	var sum outcome
	skipped := 0
	for i, o := range t.r1.outcomes {
		if i%len(t.pl.ops) < warm {
			continue
		}
		sum.migrations += o.migrations
		sum.preemptions += o.preemptions
		sum.undeployed += o.undeployed
		sum.evicted += o.evicted
		sum.stranded += o.stranded
		sum.moves += o.moves
		if o.skipped {
			skipped++
		}
		if b := t.r2.outcomes[i].bytes; b > 0 {
			sum.bytes = b
		}
	}

	lat := t.r1.lat
	row.set("client.place_p99_ms", percentile(lat[opPlace], 99))
	row.set("client.place_max_ms", percentile(lat[opPlace], 100))
	row.set("client.remove_p50_ms", median(lat[opRemove]))
	row.set("client.remove_p90_ms", percentile(lat[opRemove], 90))
	row.set("client.fail_p50_ms", median(lat[opFail]))
	row.set("client.recover_p50_ms", median(lat[opRecover]))
	row.set("client.checkpoint_p50_ms", median(lat[opCheckpoint]))
	row.set("client.rebalance_p50_ms", median(lat[opRebalance]))
	row.set("client.assignments_p50_ms", median(lat[opAssignments]))
	row.set("client.explain_p50_ms", median(lat[opExplain]))
	row.set("client.restore_ms", mean(lat[opRestore]))
	row.set("client.tenant_create_ms", mean(t.r1.tenantCreate))
	row.set("client.containers_per_s", float64(t.r1.windowPlaced)/t.r1.window.Seconds())

	reqs := float64(t.r1.windowReqs)
	row.set("http.self_ms", mean(httpSelf))
	row.set("http.req_bytes", float64(t.r1.windowBytes[0])/reqs)
	row.set("http.resp_bytes", float64(t.r1.windowBytes[1])/reqs)
	row.set("server.handler_ms", mean(handlerMS))
	row.set("server.self_ms", mean(selfMS))
	row.set("server.self_frac", mean(selfMS)/mean(handlerMS))
	row.set("server.self_nonneg_frac", float64(nonNeg)/float64(len(selfMS)))
	row.set("server.non2xx", float64(t.non2xx))

	row.set("core.place_ms", mean(byName["core.place"]))
	perContainer, explored, wallOverCritical := 0.0, 0.0, 0.0
	if place.submitted > 0 {
		placeTotal := mean(byName["core.place"]) * float64(len(byName["core.place"]))
		perContainer = placeTotal * 1000 / float64(place.submitted)
		explored = float64(place.workUnits) / float64(place.submitted)
	}
	if place.critical > 0 {
		wallOverCritical = float64(place.wall) / float64(place.critical)
	}
	row.set("core.place_us_per_container", perContainer)
	row.set("core.explored_per_container", explored)
	row.set("core.shard_wall_over_critical", wallOverCritical)
	row.set("core.view_ms", mean(byName["core.view"]))
	row.set("core.remove_ms", mean(byName["core.remove"]))
	row.set("core.fail_ms", mean(byName["core.fail"]))
	row.set("core.recover_ms", mean(byName["core.recover"]))
	row.set("core.consolidate_ms", mean(byName["core.consolidate"]))
	row.set("core.explain_ms", mean(byName["core.explain"]))
	row.set("core.new_session_ms", mean(setup["core.new_session"]))
	row.set("core.new_sharded_ms", mean(setup["core.new_sharded"]))
	row.set("core.migrations", float64(sum.migrations))
	row.set("core.preemptions", float64(sum.preemptions))
	row.set("core.undeployed", float64(sum.undeployed))
	row.set("core.evicted", float64(sum.evicted))
	row.set("core.stranded", float64(sum.stranded))
	hits := t.series1[tenantSeries("aladdin_il_cache_hits_total")]
	misses := t.series1[tenantSeries("aladdin_il_cache_misses_total")]
	ilFrac := 0.0
	if hits+misses > 0 {
		ilFrac = hits / (hits + misses)
	}
	row.set("core.il_hit_frac", ilFrac)
	row.set("core.dl_cutoffs", t.series1[tenantSeries("aladdin_dl_cutoffs_total")])

	row.set("checkpoint.capture_ms", mean(byName["checkpoint.capture"]))
	row.set("checkpoint.write_ms", mean(byName["checkpoint.write"]))
	row.set("checkpoint.bytes", float64(sum.bytes))
	row.set("checkpoint.restore_ms", mean(byName["checkpoint.restore"]))
	row.set("rebalance.cycle_ms", mean(byName["rebalance.cycle"]))
	row.set("rebalance.moves", float64(sum.moves))
	row.set("rebalance.skipped", float64(skipped))
	row.set("topology.build_ms", mean(setup["topology.build"]))

	var render []float64
	for _, s := range t.rec1.spans {
		if s.Name == handlerSpan && strings.HasPrefix(s.Op, "metrics") {
			render = append(render, s.ms())
		}
	}
	row.set("obs.render_ms", mean(render))
	row.set("obs.series", float64(len(t.series1)))

	untraced := float64(t.r0.windowReqs) / t.r0.window.Seconds()
	row.set("tracing.overhead_frac", 1-reqs/t.r1.window.Seconds()/untraced)

	row.set("share.http", mean(httpSelf)*reqs/total)
	row.set("share.server", mean(selfMS)*reqs/total)
	for _, l := range []string{"core_view", "core_other", "checkpoint", "rebalance"} {
		row.set("share."+l, layer[l]/total)
	}
}
