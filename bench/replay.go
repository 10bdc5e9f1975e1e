package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"time"

	"aladdin/internal/checkpoint"
	"aladdin/internal/constraint"
	"aladdin/internal/core"
	"aladdin/internal/obs"
	"aladdin/internal/rebalance"
	"aladdin/internal/server"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// replayBackend is the traced run's second pass: no HTTP and no
// server, only the calls the handlers make into core, checkpoint and
// rebalance, in the handlers' order, each under its own span.  What a
// handler does itself (decode, id lookup, snapshot copies, sort,
// encode) is deliberately absent, so handler span − these spans is the
// server layer's self time.
type replayBackend struct {
	w    *workload.Workload
	byID map[string]*workload.Container
	reg  *obs.Registry
	rec  *recorder

	sess    server.Sched
	plain   *core.Session // nil for a sharded tenant
	cluster *topology.Cluster
	rb      *rebalance.Rebalancer
	cycleOp string // op id of the rebalance cycle in progress

	last []byte

	// places keeps, per place op, what no span carries.
	places map[string]placeInfo
}

// placeInfo is the effort record of one core Place call.
type placeInfo struct {
	submitted      int
	workUnits      int64
	wall, critical time.Duration // sched.Result WallElapsed and Elapsed
}

// span runs f under a span of the given name.
func (b *replayBackend) span(name, id, parent string, f func()) {
	start := time.Now()
	f()
	b.rec.add(name, id, parent, start, time.Now())
}

const handlerSpan = "server.handler"

// view is Tenant.unlockAfterWrite's refresh of the read view.
func (b *replayBackend) view(id, parent string) {
	b.span("core.view", id, parent, func() { b.sess.Assignment() })
}

func (b *replayBackend) createTenant(machines, shards int) error {
	const id = "tenant-create"
	b.span("topology.build", id, handlerSpan, func() {
		b.cluster = topology.New(topology.AlibabaConfig(machines))
	})
	opts := core.DefaultOptions()
	opts.Metrics = b.reg
	opts.MetricLabels = obs.Labels{"tenant": tenantName}
	opts.Shards = shards
	var err error
	if shards > 1 {
		b.span("core.new_sharded", id, handlerSpan, func() {
			var ss *core.ShardedSession
			if ss, err = core.NewSharded(opts, b.w, b.cluster); err == nil {
				b.sess, b.plain = ss, nil
			}
		})
	} else {
		b.span("core.new_session", id, handlerSpan, func() {
			b.plain = core.NewSession(opts, b.w, b.cluster)
			b.sess = b.plain
		})
	}
	if err != nil {
		return err
	}
	b.rb = nil
	b.view(id, handlerSpan)
	return nil
}

func (b *replayBackend) deleteTenant() error {
	b.sess, b.plain, b.cluster, b.rb = nil, nil, nil, nil
	return nil
}

func (b *replayBackend) healthz() error {
	if err := b.sess.FlowConservation(); err != nil {
		return err
	}
	if vs := b.sess.Audit(); len(vs) != 0 {
		return fmt.Errorf("%d constraint violations live", len(vs))
	}
	return nil
}

func (b *replayBackend) reply() []byte { return b.last }

func (b *replayBackend) gauges() (int, int, error) {
	asg := b.sess.Assignment()
	used := make(map[topology.MachineID]struct{})
	for _, m := range asg {
		used[m] = struct{}{}
	}
	return len(asg), len(used), nil
}

// replayTarget is server.rebalanceTarget without the locks: each
// mutating call refreshes the read view, as unlockAfterWrite does.
type replayTarget struct{ b *replayBackend }

func (t replayTarget) PackingStats() core.PackingStats { return t.b.sess.PackingStats() }

func (t replayTarget) ConsolidateN(budget int) (res core.ConsolidateResult, err error) {
	t.b.span("core.consolidate", t.b.cycleOp, "rebalance.cycle", func() { res, err = t.b.sess.ConsolidateN(budget) })
	t.b.view(t.b.cycleOp, "rebalance.cycle")
	return res, err
}

func (t replayTarget) RetryStranded(budget int) (res *core.RetryResult, err error) {
	t.b.span("core.retry_stranded", t.b.cycleOp, "rebalance.cycle", func() { res, err = t.b.sess.RetryStranded(budget) })
	t.b.view(t.b.cycleOp, "rebalance.cycle")
	return res, err
}

func (t replayTarget) AuditInvariants() []core.AuditViolation { return t.b.sess.AuditInvariants() }
func (t replayTarget) FlowConservation() error                { return t.b.sess.FlowConservation() }

func (b *replayBackend) exec(id string, o op) (outcome, error) {
	var out outcome
	var err error
	switch o.kind {
	case opPlace:
		batch := make([]*workload.Container, len(o.ids))
		for i, cid := range o.ids {
			if batch[i] = b.byID[cid]; batch[i] == nil {
				return out, fmt.Errorf("unknown container %q", cid)
			}
		}
		b.span("core.place", id, handlerSpan, func() {
			res, perr := b.sess.Place(batch)
			if err = perr; err != nil {
				return
			}
			out.placed, out.undeployed, out.migrations = res.Deployed(), len(res.Undeployed), res.Migrations
			b.places[id] = placeInfo{len(batch), res.WorkUnits, res.WallElapsed, res.Elapsed}
		})
		b.view(id, handlerSpan)
	case opRemove:
		b.span("core.remove", id, handlerSpan, func() { err = b.sess.Remove(o.ids[0]) })
		b.view(id, handlerSpan)
	case opFail:
		b.span("core.fail", id, handlerSpan, func() {
			res, ferr := b.sess.FailMachine(topology.MachineID(o.machine))
			if err = ferr; err != nil {
				return
			}
			out.evicted, out.stranded = res.Evicted, len(res.Stranded)
			out.migrations, out.preemptions = res.Migrations, res.Preemptions
		})
		b.view(id, handlerSpan)
	case opRecover:
		b.span("core.recover", id, handlerSpan, func() {
			res, rerr := b.sess.RecoverMachine(topology.MachineID(o.machine))
			if err = rerr; err != nil {
				return
			}
			out.placed, out.migrations, out.preemptions = len(res.Replaced), res.Migrations, res.Preemptions
		})
		b.view(id, handlerSpan)
	case opCheckpoint:
		var snap *checkpoint.SessionSnapshot
		b.span("checkpoint.capture", id, handlerSpan, func() { snap, err = checkpoint.CaptureSession(b.plain) })
		if err != nil {
			return out, err
		}
		b.span("checkpoint.write", id, handlerSpan, func() { err = checkpoint.WriteFile(o.ids[0], snap) })
		if st, serr := os.Stat(o.ids[0]); serr == nil {
			out.bytes = int(st.Size())
		}
	case opRebalance:
		// One Rebalancer per tenant, built on first use as the server
		// does: its drift baseline carries from cycle to cycle.
		if b.rb == nil {
			b.rb = rebalance.New(replayTarget{b}, rebalance.Config{
				Audit: true, Metrics: b.reg, MetricLabels: obs.Labels{"tenant": tenantName},
			})
		}
		b.cycleOp = id
		b.span("rebalance.cycle", id, handlerSpan, func() {
			res := b.rb.RunCycleBudget(rebalanceBudget)
			err = res.Err
			out.placed, out.moves, out.skipped = res.Replaced, res.Moves, res.Skipped
		})
	case opAssignments:
		var asg constraint.Assignment
		b.span("core.view", id, handlerSpan, func() { asg = b.sess.Assignment() })
		b.last = assignmentListing(asg)
	case opExplain:
		b.span("core.explain", id, handlerSpan, func() {
			_, err = core.Explain(b.w, b.cluster, b.sess.Assignment(), o.ids[0])
		})
	case opRestore:
		b.span("checkpoint.restore", id, handlerSpan, func() {
			var snap *checkpoint.SessionSnapshot
			if snap, err = checkpoint.ReadFile(o.ids[0]); err != nil {
				return
			}
			var sess *core.Session
			var cluster *topology.Cluster
			if sess, cluster, err = snap.Restore(b.plain.Options(), b.w); err == nil {
				b.plain, b.sess, b.cluster = sess, sess, cluster
			}
		})
		if err == nil {
			b.view(id, handlerSpan)
		}
	default:
		err = fmt.Errorf("no replay for op kind %d", o.kind)
	}
	return out, err
}

// assignmentListing renders an assignment in container order — the
// replay's stand-in for the /assignments body in the restore gate.
func assignmentListing(asg constraint.Assignment) []byte {
	ids := make([]string, 0, len(asg))
	for id := range asg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var buf bytes.Buffer
	for _, id := range ids {
		fmt.Fprintf(&buf, "%s %d\n", id, asg[id])
	}
	return buf.Bytes()
}
