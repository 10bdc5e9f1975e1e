package aladdin_test

import (
	"bytes"
	"math/rand"
	"testing"

	"aladdin/internal/constraint"
	"aladdin/internal/core"
	"aladdin/internal/firmament"
	"aladdin/internal/gokube"
	"aladdin/internal/kubesim"
	"aladdin/internal/medea"
	"aladdin/internal/quickseed"
	"aladdin/internal/resource"
	"aladdin/internal/sched"
	"aladdin/internal/sim"
	"aladdin/internal/topology"
	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

// allSchedulers returns one representative configuration per
// scheduler family.
func allSchedulers() []sched.Scheduler {
	return []sched.Scheduler{
		core.NewDefault(),
		gokube.NewDefault(),
		medea.New(medea.Options{Weights: medea.Weights{A: 1, B: 1, C: 0}}),
		firmament.New(firmament.Options{Model: firmament.Trivial, Reschd: 4}),
		firmament.New(firmament.Options{Model: firmament.Quincy, Reschd: 4}),
		firmament.New(firmament.Options{Model: firmament.Octopus, Reschd: 4}),
	}
}

// TestAllSchedulersProduceConsistentResults runs every scheduler on
// the same trace and verifies the structural invariants the Result
// contract promises: assignments match machine state, capacities are
// respected, no container is both deployed and undeployed.
func TestAllSchedulersProduceConsistentResults(t *testing.T) {
	w := trace.MustGenerate(trace.Scaled(42, 200))
	for _, s := range allSchedulers() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			cl := topology.New(topology.AlibabaConfig(160))
			res, err := s.Schedule(w, cl, w.Arrange(workload.OrderInterleaved))
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Verify(w, cl); err != nil {
				t.Fatal(err)
			}
			if res.Total != w.NumContainers() {
				t.Errorf("Total = %d, want %d", res.Total, w.NumContainers())
			}
		})
	}
}

// TestAllSchedulersDeterministic verifies the same inputs give the
// same placement decisions (required for reproducible experiments).
func TestAllSchedulersDeterministic(t *testing.T) {
	w := trace.MustGenerate(trace.Scaled(7, 300))
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return core.NewDefault() },
		func() sched.Scheduler { return gokube.NewDefault() },
		func() sched.Scheduler {
			return medea.New(medea.Options{Weights: medea.Weights{A: 1, B: 1, C: 0}})
		},
		func() sched.Scheduler {
			return firmament.New(firmament.Options{Model: firmament.Quincy, Reschd: 2})
		},
	} {
		s1, s2 := mk(), mk()
		t.Run(s1.Name(), func(t *testing.T) {
			cl1 := topology.New(topology.AlibabaConfig(128))
			cl2 := topology.New(topology.AlibabaConfig(128))
			arrivals := w.Arrange(workload.OrderCHP)
			r1, err := s1.Schedule(w, cl1, arrivals)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := s2.Schedule(w, cl2, arrivals)
			if err != nil {
				t.Fatal(err)
			}
			if len(r1.Assignment) != len(r2.Assignment) {
				t.Fatalf("assignment sizes differ: %d vs %d", len(r1.Assignment), len(r2.Assignment))
			}
			for id, m := range r1.Assignment {
				if r2.Assignment[id] != m {
					t.Fatalf("container %s: %d vs %d", id, m, r2.Assignment[id])
				}
			}
		})
	}
}

// TestAladdinNeverViolatesProperty is the headline invariant as a
// property test: on random workloads Aladdin never produces an
// anti-affinity violation or a priority inversion, whatever the
// cluster size.
func TestAladdinNeverViolatesProperty(t *testing.T) {
	f := func(seed int64, machineSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		apps := randomApps(rng, 2+rng.Intn(12))
		w, err := workload.New(apps)
		if err != nil {
			return false
		}
		machines := 2 + int(machineSeed)%30
		cl := topology.New(topology.Config{
			Machines: machines, MachinesPerRack: 4, RacksPerCluster: 4,
			Capacity: resource.Cores(32, 64*1024),
		})
		res, err := core.NewDefault().Schedule(w, cl, w.Arrange(workload.OrderSubmission))
		if err != nil {
			return false
		}
		if err := res.Verify(w, cl); err != nil {
			return false
		}
		s := res.ViolationSummary()
		return s.Total() == 0
	}
	quickseed.Check(t, f, 60)
}

// TestNoSchedulerOverallocatesProperty: no scheduler may ever leave a
// machine above capacity, whatever the workload.
func TestNoSchedulerOverallocatesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		apps := randomApps(rng, 2+rng.Intn(8))
		w, err := workload.New(apps)
		if err != nil {
			return false
		}
		for _, s := range allSchedulers() {
			cl := topology.New(topology.Config{
				Machines: 8, MachinesPerRack: 4, RacksPerCluster: 2,
				Capacity: resource.Cores(32, 64*1024),
			})
			res, err := s.Schedule(w, cl, w.Arrange(workload.OrderSubmission))
			if err != nil {
				return false
			}
			if err := res.Verify(w, cl); err != nil {
				return false
			}
		}
		return true
	}
	quickseed.Check(t, f, 25)
}

// randomApps builds a small random workload with a mix of priorities
// and constraints.
func randomApps(rng *rand.Rand, n int) []*workload.App {
	apps := make([]*workload.App, n)
	for i := range apps {
		apps[i] = &workload.App{
			ID:       string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Demand:   resource.Cores(1+rng.Int63n(16), 1024*(1+rng.Int63n(16))),
			Replicas: 1 + rng.Intn(6),
			Priority: workload.Priority(rng.Intn(3)),
		}
		if rng.Intn(2) == 0 {
			apps[i].AntiAffinitySelf = true
		}
	}
	// Random across-app pairs among already-created apps.
	for i, a := range apps {
		if i > 0 && rng.Intn(3) == 0 {
			a.AntiAffinityApps = []string{apps[rng.Intn(i)].ID}
		}
	}
	return apps
}

// TestKubesimResolverWithAllSchedulers replays every scheduler's
// decisions through the kubesim bind API.
func TestKubesimResolverWithAllSchedulers(t *testing.T) {
	w := trace.MustGenerate(trace.Scaled(13, 400))
	for _, s := range allSchedulers() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			bus := kubesim.NewBus()
			cl := topology.New(topology.AlibabaConfig(96))
			adaptor := kubesim.NewAdaptor(cl, bus)
			res, err := kubesim.NewResolver(s).Resolve(w, adaptor, workload.OrderSubmission)
			if err != nil {
				t.Fatal(err)
			}
			// Every assignment is live on the adaptor's cluster.
			for id, m := range res.Assignment {
				if !cl.Machine(m).Hosts(id) {
					t.Errorf("%s not hosted on %d", id, m)
				}
			}
			bound := 0
			for _, e := range bus.Log() {
				if e.Kind == kubesim.ContainerBound {
					bound++
				}
			}
			if bound != res.Deployed() {
				t.Errorf("bound events %d != deployed %d", bound, res.Deployed())
			}
		})
	}
}

// TestTraceFormatsAgree schedules the same generated workload after a
// JSONL round trip and after a CSV round trip and expects identical
// outcomes.
func TestTraceFormatsAgree(t *testing.T) {
	w := trace.MustGenerate(trace.Scaled(23, 400))
	var jl, cs bytes.Buffer
	if err := trace.Write(&jl, w); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(&cs, w); err != nil {
		t.Fatal(err)
	}
	w1, err := trace.Read(&jl)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := trace.ReadCSV(&cs)
	if err != nil {
		t.Fatal(err)
	}
	run := func(w *workload.Workload) constraint.Assignment {
		cl := topology.New(topology.AlibabaConfig(96))
		res, err := core.NewDefault().Schedule(w, cl, w.Arrange(workload.OrderSubmission))
		if err != nil {
			t.Fatal(err)
		}
		return res.Assignment
	}
	a1, a2 := run(w1), run(w2)
	if len(a1) != len(a2) {
		t.Fatalf("assignment sizes differ: %d vs %d", len(a1), len(a2))
	}
	for id, m := range a1 {
		if a2[id] != m {
			t.Fatalf("container %s differs: %d vs %d", id, m, a2[id])
		}
	}
}

// TestSimAndDirectScheduleAgree cross-checks the sim harness against
// driving the scheduler directly.
func TestSimAndDirectScheduleAgree(t *testing.T) {
	w := trace.MustGenerate(trace.Scaled(31, 400))
	m, err := sim.Run(sim.Config{
		Scheduler: core.NewDefault(), Workload: w, Machines: 96,
		Order: workload.OrderCLA,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := topology.New(topology.AlibabaConfig(96))
	res, err := core.NewDefault().Schedule(w, cl, w.Arrange(workload.OrderCLA))
	if err != nil {
		t.Fatal(err)
	}
	if m.Deployed != res.Deployed() {
		t.Errorf("sim deployed %d != direct %d", m.Deployed, res.Deployed())
	}
	if m.UsedMachines != cl.UsedMachines() {
		t.Errorf("sim used %d != direct %d", m.UsedMachines, cl.UsedMachines())
	}
}
