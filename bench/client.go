package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

const tenantName = "bench"

// outcome is what one op did, in the terms the harness ledger and the
// trace join need.  The HTTP client fills it from the reply body; the
// in-process replay fills it from the core's result structs.
type outcome struct {
	placed      int // containers that became live (place, recover, rebalance retry)
	undeployed  int // place: containers the batch could not deploy
	stranded    int // fail: containers that stopped being live
	evicted     int
	migrations  int
	preemptions int
	moves       int // rebalance
	skipped     bool
	bytes       int // checkpoint: file size (replay only)

	reqBytes, respBytes int // HTTP body sizes (HTTP only)
}

// disruptions is the paper's Fig. 13b cost: running containers the
// scheduler moved or evicted to serve this op.
func (o outcome) disruptions() int { return o.migrations + o.preemptions + o.moves }

// backend executes the harness's requests.  httpBackend talks to a
// server (the real binary, or an in-process one in the traced run);
// replayBackend calls the modules' public functions directly.
type backend interface {
	createTenant(machines, shards int) error
	deleteTenant() error
	exec(id string, o op) (outcome, error)
	healthz() error
	// reply is the body of the latest reply (the assignment listing
	// after an opAssignments).
	reply() []byte
	// gauges reads containers live and machines used for the tenant.
	gauges() (placed, machinesUsed int, err error)
}

// httpBackend is one closed-loop client on one keep-alive connection.
type httpBackend struct {
	base   string
	client *http.Client
	// spans, when non-nil, receives a client.request span per call and
	// tags the request with its op id so the server-side span joins it.
	spans *recorder

	reqBytes, respBytes int64
	non2xx              int
	lastBody            []byte // reply body of the latest call
}

func newHTTPBackend(base string, spans *recorder) *httpBackend {
	return &httpBackend{
		base:  base,
		spans: spans,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
			DisableCompression: true,
		}},
	}
}

func (h *httpBackend) reply() []byte { return h.lastBody }

func (h *httpBackend) close() { h.client.CloseIdleConnections() }

const opHeader = "X-Bench-Op"

// call issues one request and requires the given status.  The body is
// left in h.lastBody.
func (h *httpBackend) call(id, method, path string, body []byte, want int) error {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rdr)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if h.spans != nil {
		req.Header.Set(opHeader, id)
	}
	start := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	h.lastBody, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return err
	}
	h.spans.add("client.request", id, "", start, end)
	h.reqBytes += int64(len(body))
	h.respBytes += int64(len(h.lastBody))
	if resp.StatusCode/100 != 2 {
		h.non2xx++
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, firstLine(h.lastBody))
	}
	return nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps and strings are marshalled here
	}
	return b
}

func (h *httpBackend) createTenant(machines, shards int) error {
	body := mustJSON(map[string]any{"name": tenantName, "machines": machines, "shards": shards})
	return h.call("tenant-create", "POST", "/tenants", body, http.StatusCreated)
}

func (h *httpBackend) deleteTenant() error {
	return h.call("tenant-delete", "DELETE", "/tenants/"+tenantName, nil, http.StatusOK)
}

func (h *httpBackend) healthz() error {
	return h.call("healthz", "GET", "/t/"+tenantName+"/healthz", nil, http.StatusOK)
}

func (h *httpBackend) exec(id string, o op) (out outcome, err error) {
	const prefix = "/t/" + tenantName + "/"
	// post sends a JSON body and decodes the JSON reply into into.
	post := func(route string, body, into any) error {
		if err := h.call(id, "POST", prefix+route, mustJSON(body), http.StatusOK); err != nil {
			return err
		}
		return json.Unmarshal(h.lastBody, into)
	}
	req0, resp0 := h.reqBytes, h.respBytes
	defer func() { out.reqBytes, out.respBytes = int(h.reqBytes-req0), int(h.respBytes-resp0) }()
	switch o.kind {
	case opPlace:
		var rep struct {
			Placed     int      `json:"placed"`
			Undeployed []string `json:"undeployed"`
			Migrations int      `json:"migrations"`
		}
		err = post("place", map[string]any{"containers": o.ids}, &rep)
		out.placed, out.undeployed, out.migrations = rep.Placed, len(rep.Undeployed), rep.Migrations
	case opRemove:
		err = h.call(id, "POST", prefix+"remove", mustJSON(map[string]string{"container": o.ids[0]}), http.StatusOK)
	case opFail:
		var rep struct {
			Evicted     int      `json:"evicted"`
			Stranded    []string `json:"stranded"`
			Migrations  int      `json:"migrations"`
			Preemptions int      `json:"preemptions"`
		}
		err = post("fail", map[string]int{"machine": o.machine}, &rep)
		out.evicted, out.stranded = rep.Evicted, len(rep.Stranded)
		out.migrations, out.preemptions = rep.Migrations, rep.Preemptions
	case opRecover:
		var rep struct {
			Replaced    []string `json:"replaced"`
			Migrations  int      `json:"migrations"`
			Preemptions int      `json:"preemptions"`
		}
		err = post("recover", map[string]int{"machine": o.machine}, &rep)
		out.placed, out.migrations, out.preemptions = len(rep.Replaced), rep.Migrations, rep.Preemptions
	case opCheckpoint:
		var rep struct{}
		err = post("checkpoint", map[string]string{"path": o.ids[0]}, &rep)
	case opRebalance:
		var rep struct {
			Moves    int  `json:"moves"`
			Replaced int  `json:"replaced"`
			Skipped  bool `json:"skipped"`
		}
		err = post("rebalance", map[string]int{"budget": rebalanceBudget}, &rep)
		out.placed, out.moves, out.skipped = rep.Replaced, rep.Moves, rep.Skipped
	case opAssignments:
		err = h.call(id, "GET", prefix+"assignments", nil, http.StatusOK)
	case opExplain:
		err = h.call(id, "GET", prefix+"explain?container="+url.QueryEscape(o.ids[0]), nil, http.StatusOK)
	case opRestore:
		var rep struct{}
		err = post("restore", map[string]string{"path": o.ids[0]}, &rep)
	default:
		err = fmt.Errorf("no route for op kind %d", o.kind)
	}
	return out, err
}

// rebalanceBudget is the move budget of every POST /rebalance.
const rebalanceBudget = 64

// scrape fetches /metrics and returns the samples by series name.
func (h *httpBackend) scrape(id string) (map[string]float64, error) {
	if err := h.call(id, "GET", "/metrics", nil, http.StatusOK); err != nil {
		return nil, err
	}
	return parseExposition(string(h.lastBody))
}

// parseExposition reads Prometheus text exposition into series → value.
func parseExposition(text string) (map[string]float64, error) {
	series := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		series[line[:i]] = v
	}
	return series, nil
}

// tenantSeries is the exposition key of one of the tenant's series.
func tenantSeries(name string) string {
	return fmt.Sprintf("%s{tenant=%q}", name, tenantName)
}

// gauges takes the live-container count from the tenant's /metrics
// gauge and the machine count from GET /assignments: the
// aladdin_machines_used gauge reads 0 for a sharded tenant (it looks at
// the parent cluster, which the shards' private copies never touch).
func (h *httpBackend) gauges() (int, int, error) {
	series, err := h.scrape("metrics")
	if err != nil {
		return 0, 0, err
	}
	placed, ok := series[tenantSeries("aladdin_containers_placed")]
	if !ok {
		return 0, 0, fmt.Errorf("/metrics lacks the %s tenant's containers_placed gauge", tenantName)
	}
	if err := h.call("assignments", "GET", "/t/"+tenantName+"/assignments", nil, http.StatusOK); err != nil {
		return 0, 0, err
	}
	var rows []struct {
		Machine int `json:"machine"`
	}
	if err := json.Unmarshal(h.lastBody, &rows); err != nil {
		return 0, 0, err
	}
	if len(rows) != int(placed) {
		return 0, 0, fmt.Errorf("/assignments lists %d containers, /metrics says %d are placed", len(rows), int(placed))
	}
	used := make(map[int]struct{})
	for _, r := range rows {
		used[r.Machine] = struct{}{}
	}
	return int(placed), len(used), nil
}
