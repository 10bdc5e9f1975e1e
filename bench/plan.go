package main

import (
	"fmt"
	"math/rand"
	"time"

	"aladdin/internal/core"
	"aladdin/internal/topology"
	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

// universe is the generated input of one run: the workload the server
// is started on and the arrival order every workload draws from.
type universe struct {
	sc    scale
	w     *workload.Workload
	order []string // container ids, workload.OrderInterleaved

	generate, arrange time.Duration
}

// traceSeed fixes the universe.  The run seed varies the op sequence
// only: two universes of the same shape differ by 8 % in how fast the
// tight fill goes and by 10 % in how many migrations it takes, which is
// more than the regression bounds, so a run-to-run comparison across
// seeds would measure the draw of the universe and not the program.
const traceSeed = 42

// newUniverse generates the trace and its arrival order.
func newUniverse(sc scale) (*universe, error) {
	u := &universe{sc: sc}
	t0 := time.Now()
	w, err := trace.Generate(trace.Scaled(traceSeed, sc.factor))
	if err != nil {
		return nil, err
	}
	u.generate = time.Since(t0)
	u.w = w
	t0 = time.Now()
	arrival := w.Arrange(workload.OrderInterleaved)
	u.arrange = time.Since(t0)
	u.order = make([]string, len(arrival))
	for i, c := range arrival {
		u.order[i] = c.ID
	}
	return u, nil
}

// packedSize is how many machines the whole universe packs into when
// it is scheduled as one batch (place, consolidate, retry) on the loose
// cluster — fewer than online placement without consolidation uses.
// fill_tight sizes its cluster from it.
func (u *universe) packedSize() (int, error) {
	cluster := topology.New(topology.AlibabaConfig(u.sc.machines))
	res, err := core.NewDefault().Schedule(u.w, cluster, u.w.Arrange(workload.OrderInterleaved))
	if err != nil {
		return 0, fmt.Errorf("sizing placement: %w", err)
	}
	if len(res.Undeployed) != 0 {
		return 0, fmt.Errorf("sizing placement left %d containers undeployed on %d machines", len(res.Undeployed), u.sc.machines)
	}
	return cluster.UsedMachines(), nil
}

// plan is the fixed request sequence of one workload round.
type plan struct {
	machines int
	preload  [][]string
	ops      []op
	// expectLive is how many containers the universe has; fill_tight's
	// gate requires all of them deployed at the end of a round.
	expectLive int
}

func batches(ids []string, size int) [][]string {
	var out [][]string
	for len(ids) > 0 {
		n := size
		if n > len(ids) {
			n = len(ids)
		}
		out = append(out, ids[:n])
		ids = ids[n:]
	}
	return out
}

// buildPlan lays out a workload's preload and timed ops.  Which
// requests are sent is fixed by the universe; the seed decides their
// order inside small blocks (and which container is explained), so a
// run repeats exactly per (seed, units) and every seed does the same
// amount of work.  Letting the seed pick the departing containers or the
// failing machines instead moves ops_mixed's rebalance cycles between 20
// and 430 moves, and its throughput by 10 %, from one seed to the next.
func buildPlan(spec *workloadSpec, u *universe, seed int64, units int, ckptPath string) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	shuffled := func(ids []string) []string {
		out := append([]string(nil), ids...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	n := len(u.order)
	pre := int(float64(n) * spec.preload)
	pl := &plan{machines: u.sc.machines, preload: batches(u.order[:pre], u.sc.preloadBatch)}
	if spec.tight {
		packed, err := u.packedSize()
		if err != nil {
			return nil, err
		}
		pl.machines = packed + packed/256
	}

	switch spec.name {
	case "churn_plain", "churn_sharded":
		if units > n-pre || units > pre {
			return nil, fmt.Errorf("%s: %d pairs exceed the universe (%d arrivals left, %d preloaded)", spec.name, units, n-pre, pre)
		}
		// Arrivals continue the interleaved order; departures take the
		// preloaded containers oldest first, reordered within blocks of 8.
		var departures []string
		for _, block := range batches(u.order[:units], 8) {
			departures = append(departures, shuffled(block)...)
		}
		for i := 0; i < units; i++ {
			pl.ops = append(pl.ops,
				op{kind: opPlace, ids: u.order[pre+i : pre+i+1]},
				op{kind: opRemove, ids: departures[i : i+1]})
		}
	case "fill_tight":
		tail := batches(u.order[pre:], u.sc.fillBatch)
		if units < len(tail) {
			// A shorter run times the end of the tail and moves the
			// rest into the preload, so the cluster still ends full.
			cut := n - units*u.sc.fillBatch
			pl.preload = batches(u.order[:cut], u.sc.preloadBatch)
			tail = batches(u.order[cut:], u.sc.fillBatch)
		}
		for _, b := range tail {
			// Which containers a request carries is the arrival order's;
			// the seed orders them inside the request.
			pl.ops = append(pl.ops, op{kind: opPlace, ids: shuffled(b)})
		}
		pl.expectLive = n
	case "ops_mixed":
		// Three failures a cycle, not one: /fail is the primary request
		// and its p90 needs some thirty samples beyond it to sit still.
		const removesPerCycle, failsPerCycle = 4, 3
		stride := u.sc.removeStride
		start := pre / 2 // departures walk the younger half of the preload
		if start+units*removesPerCycle*stride+stride >= pre {
			return nil, fmt.Errorf("ops_mixed: %d cycles run past the preload (%d containers)", units, pre)
		}
		// Failures hit the lower half of the cluster: placement fills
		// machines in id order and 80 % of the universe occupies ~55 % of
		// them, so those machines have residents to evict and re-place.
		failable := pl.machines / 2
		for i := 0; i < units; i++ {
			cycle := make([]string, removesPerCycle)
			for j := range cycle {
				cycle[j] = u.order[start+stride*(i*removesPerCycle+j)]
			}
			for _, id := range shuffled(cycle) {
				pl.ops = append(pl.ops, op{kind: opRemove, ids: []string{id}})
			}
			for j := 0; j < failsPerCycle; j++ {
				m := 37 * (i*failsPerCycle + j) % failable
				pl.ops = append(pl.ops, op{kind: opFail, machine: m}, op{kind: opRecover, machine: m})
			}
			switch i % 4 {
			case 0:
				pl.ops = append(pl.ops, op{kind: opCheckpoint, ids: []string{ckptPath}})
			case 1:
				pl.ops = append(pl.ops, op{kind: opRebalance})
			case 2:
				pl.ops = append(pl.ops, op{kind: opAssignments})
			case 3:
				// A live container: one of those between the last
				// departure of this cycle and the first of the next.
				next := start + stride*(i+1)*removesPerCycle
				pl.ops = append(pl.ops, op{kind: opExplain, ids: []string{u.order[next-1-rng.Intn(stride-1)]}})
			}
		}
	default:
		return nil, fmt.Errorf("no plan for workload %q", spec.name)
	}
	return pl, nil
}
