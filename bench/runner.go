package main

import (
	"bytes"
	"fmt"
	"time"

	"aladdin/internal/checkpoint"
)

// warmupShare of each round's timed ops run before the measurement
// window opens; they are excluded from latencies and throughput.
const warmupShare = 0.05

// runner drives one workload's plan against one backend and gathers
// what a result needs.  Counts cover every timed op; latencies and the
// throughput window skip the warm-up share.
type runner struct {
	spec *workloadSpec
	pl   *plan
	// open starts the server a round runs against.  A workload with
	// freshServer set opens one per round; the others open one for all
	// rounds and create and delete a tenant per round.
	open func() (*session, error)

	b      backend // of the current session
	target *target // its process; nil when the server runs inside the harness

	lat          [numKinds][]float64 // ms, client side, after warm-up
	outcomes     []outcome           // one per timed op, all rounds, in order
	attempted    int
	failed       int
	failures     []string // first few failure messages
	windowReqs   int
	windowPlaced int      // containers deployed inside the window
	windowBytes  [2]int64 // request and reply body bytes inside the window
	window       time.Duration
	// Per round, so that one disturbed round does not set the run's
	// figure: requests per second, server CPU ms per request, and the
	// mean of the round's resident-set samples.
	roundRate, roundCPU, roundRSS []float64
	disruptions                   int
	tenantCreate                  []float64 // ms
	setups                        []float64 // s: server start → ready → tenant created → preloaded → healthz

	want int // containers submitted and not removed since the tenant was created
	live int // containers the replies say are deployed

	// gate results of the latest round
	gaugePlaced, gaugeUsed int
}

func (r *runner) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// session is one server under load: the backend that reaches it and,
// when it is a process of its own, that process's /proc readers.
type session struct {
	b      backend
	target *target // nil when the server runs inside the harness
	close  func() error
}

// setup creates the tenant and preloads it.  Preload requests are
// set-up, not load: any failure aborts the run.  ready is how long the
// server took to start answering.
func (r *runner) setup(round int, ready time.Duration) error {
	r.want, r.live = 0, 0
	t0 := time.Now()
	if err := r.b.createTenant(r.pl.machines, r.spec.shards); err != nil {
		return err
	}
	r.tenantCreate = append(r.tenantCreate, float64(time.Since(t0))/1e6)
	for i, batch := range r.pl.preload {
		out, err := r.b.exec(fmt.Sprintf("r%d/pre%d", round, i), op{kind: opPlace, ids: batch})
		if err != nil {
			return fmt.Errorf("preload batch %d: %w", i, err)
		}
		if out.placed != len(batch) {
			return fmt.Errorf("preload batch %d: %d of %d containers deployed", i, out.placed, len(batch))
		}
		r.want += len(batch)
		r.live += out.placed
	}
	if err := r.b.healthz(); err != nil {
		return err
	}
	r.setups = append(r.setups, (ready + time.Since(t0)).Seconds())
	return nil
}

// timed runs the round's ops in order, one at a time.
func (r *runner) timed(round int) error {
	ops := r.pl.ops
	warm := int(float64(len(ops)) * warmupShare)
	var t0 time.Time
	var cpu0 time.Duration
	mark := func() (time.Time, time.Duration, error) {
		if r.target == nil {
			return time.Now(), 0, nil
		}
		c, err := r.target.cpuTime()
		return time.Now(), c, err
	}
	// About two hundred resident-set samples per window: the mean of a
	// garbage-collected heap's sawtooth repeats, its peak does not.
	rssEvery := (len(ops)-warm)/200 + 1
	var rssMB []float64
	for i, o := range ops {
		if i == warm {
			var err error
			if t0, cpu0, err = mark(); err != nil {
				return err
			}
		}
		if r.target != nil && i >= warm && (i-warm)%rssEvery == 0 {
			mb, err := r.target.rssMB()
			if err != nil {
				return err
			}
			rssMB = append(rssMB, mb)
		}
		start := time.Now()
		out, err := r.b.exec(fmt.Sprintf("r%d/%d", round, i), o)
		ms := float64(time.Since(start)) / 1e6
		r.attempted++
		r.outcomes = append(r.outcomes, out)
		if err != nil {
			r.fail(fmt.Errorf("op %d (%s): %w", i, o.kind, err))
			continue
		}
		switch o.kind {
		case opPlace:
			r.want += len(o.ids)
		case opRemove:
			r.want--
			r.live--
		}
		r.live += out.placed - out.stranded
		r.disruptions += out.disruptions()
		if i >= warm {
			r.lat[o.kind] = append(r.lat[o.kind], ms)
			r.windowPlaced += out.placed
			r.windowBytes[0] += int64(out.reqBytes)
			r.windowBytes[1] += int64(out.respBytes)
		}
	}
	t1, cpu1, err := mark()
	if err != nil {
		return err
	}
	reqs := float64(len(ops) - warm)
	r.window += t1.Sub(t0)
	r.windowReqs += len(ops) - warm
	r.roundRate = append(r.roundRate, reqs/t1.Sub(t0).Seconds())
	r.roundCPU = append(r.roundCPU, float64(cpu1-cpu0)/1e6/reqs)
	r.roundRSS = append(r.roundRSS, mean(rssMB))
	return nil
}

// gate is the per-round correctness check: the placement audits clean,
// the server's live-container gauge equals what its replies added up
// to, and a workload that must deploy the whole universe did.
func (r *runner) gate() error {
	if err := r.b.healthz(); err != nil {
		return err
	}
	var err error
	if r.gaugePlaced, r.gaugeUsed, err = r.b.gauges(); err != nil {
		return err
	}
	if r.gaugePlaced != r.live {
		return fmt.Errorf("server reports %d containers placed, replies add up to %d", r.gaugePlaced, r.live)
	}
	if r.pl.expectLive != 0 && r.gaugePlaced != r.pl.expectLive {
		return fmt.Errorf("%d of %d containers deployed", r.gaugePlaced, r.pl.expectLive)
	}
	return nil
}

// restoreGate ends ops_mixed: checkpoint, read the assignment, restore
// from the checkpoint, read again.  The two reads must be identical
// bytes and the file must pass the checkpoint reader's checksum.
func (r *runner) restoreGate(path string) error {
	step := func(id string, o op) error {
		start := time.Now()
		_, err := r.b.exec(id, o)
		r.attempted++
		if err != nil {
			r.fail(err)
			return err
		}
		if o.kind == opRestore {
			r.lat[opRestore] = append(r.lat[opRestore], float64(time.Since(start))/1e6)
		}
		return nil
	}
	if err := step("gate/checkpoint", op{kind: opCheckpoint, ids: []string{path}}); err != nil {
		return err
	}
	if _, err := checkpoint.ReadFile(path); err != nil {
		return fmt.Errorf("checkpoint file: %w", err)
	}
	if err := step("gate/assignments-before", op{kind: opAssignments}); err != nil {
		return err
	}
	before := append([]byte(nil), r.b.reply()...)
	if err := step("gate/restore", op{kind: opRestore, ids: []string{path}}); err != nil {
		return err
	}
	if err := step("gate/assignments-after", op{kind: opAssignments}); err != nil {
		return err
	}
	if after := r.b.reply(); !bytes.Equal(before, after) {
		return fmt.Errorf("assignment after restore differs from the one before (%d vs %d bytes)", len(after), len(before))
	}
	return nil
}

// run takes the plan through every round: open a server if none is
// open, set up, timed phase, gates, then close the server or delete
// the tenant.
func (r *runner) run(ckptPath string) error {
	var s *session
	var ready time.Duration
	closeSession := func() error {
		if s == nil {
			return nil
		}
		err := s.close()
		s = nil
		return err
	}
	defer closeSession() // error paths; the success path checks it below
	for round := 0; round < r.spec.rounds; round++ {
		if s == nil {
			t0 := time.Now()
			var err error
			if s, err = r.open(); err != nil {
				return err
			}
			ready = time.Since(t0)
			r.b, r.target = s.b, s.target
		}
		if err := r.setup(round, ready); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if err := r.timed(round); err != nil {
			return err
		}
		if r.spec.restoreGate {
			if err := r.restoreGate(ckptPath); err != nil {
				return fmt.Errorf("restore gate: %w", err)
			}
		}
		if err := r.gate(); err != nil {
			return fmt.Errorf("gate: %w", err)
		}
		if r.spec.freshServer {
			if err := closeSession(); err != nil {
				return err
			}
		} else if err := r.b.deleteTenant(); err != nil {
			return err
		}
	}
	return closeSession()
}
