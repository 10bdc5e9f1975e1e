package medea

import (
	"math/rand"
	"testing"

	"aladdin/internal/constraint"
	"aladdin/internal/quickseed"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

func tinyCluster(machines int) *topology.Cluster {
	return topology.New(topology.Config{
		Machines: machines, MachinesPerRack: 2, RacksPerCluster: 2,
		Capacity: resource.Cores(8, 16*1024),
	})
}

func TestObjectiveBasics(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(4, 4096), Replicas: 2, AntiAffinitySelf: true},
	})
	cl := tinyCluster(2)
	wts := Weights{A: 1, B: 1, C: 0}
	// Empty assignment: objective 0.
	obj, err := Objective(w, cl, constraint.Assignment{}, wts)
	if err != nil || obj != 0 {
		t.Fatalf("empty objective = %v, %v", obj, err)
	}
	// Both spread: 2·A − frag(two machines half free).
	spread := constraint.Assignment{"a/0": 0, "a/1": 1}
	objSpread, err := Objective(w, cl, spread, wts)
	if err != nil {
		t.Fatal(err)
	}
	if objSpread != 2-0.5-0.5 {
		t.Errorf("spread objective = %v, want 1.0", objSpread)
	}
	// Both stacked: violation at zero tolerance is costly.
	stacked := constraint.Assignment{"a/0": 0, "a/1": 0}
	objStacked, err := Objective(w, cl, stacked, wts)
	if err != nil {
		t.Fatal(err)
	}
	if objStacked >= objSpread {
		t.Errorf("stacked %v should score below spread %v at zero tolerance", objStacked, objSpread)
	}
	// Over capacity is an error.
	over := constraint.Assignment{"a/0": 0, "a/1": 0}
	w2 := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(5, 4096), Replicas: 2},
	})
	if _, err := Objective(w2, cl, over, wts); err == nil {
		t.Error("over-capacity assignment should error")
	}
	// Unknown machine is an error.
	if _, err := Objective(w, cl, constraint.Assignment{"a/0": 99}, wts); err == nil {
		t.Error("unknown machine should error")
	}
}

func TestExactSolveSmall(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(4, 4096), Replicas: 2, AntiAffinitySelf: true},
		{ID: "b", Demand: resource.Cores(8, 8192), Replicas: 1},
	})
	cl := tinyCluster(3)
	asg, obj, err := ExactSolve(w, cl, Weights{A: 1, B: 1, C: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(asg) != 3 {
		t.Errorf("exact should place all 3, placed %d", len(asg))
	}
	if len(constraint.AuditAntiAffinity(w, asg)) != 0 {
		t.Error("exact optimum at zero tolerance must not violate")
	}
	if obj <= 0 {
		t.Errorf("objective = %v", obj)
	}
}

func TestExactSolveRejectsBigInstances(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "a", Demand: resource.Cores(1, 1), Replicas: MaxExactContainers + 1},
	})
	if _, _, err := ExactSolve(w, tinyCluster(2), Weights{A: 1}); err == nil {
		t.Error("oversized instance should be rejected")
	}
	if _, _, err := ExactSolve(w, tinyCluster(2), Weights{A: 2}); err == nil {
		t.Error("invalid weights should be rejected")
	}
}

// TestGreedyNearExact validates the approximation on random tiny
// instances (≤ 9 containers, three 8-core machines).  Two properties
// hold by construction and are asserted exactly: the greedy+local-search
// objective never beats the exact optimum, and the result is maximal —
// nothing left undeployed is admissible on any machine (every rescue
// pass ends with a full scan, and later placements only shrink free
// space).  Near-optimality is not a theorem: the local search moves one
// container at a time, so it cannot make the swap that frees a slot
// (seed -4565365005895353599: a 6c×2, b 2c×2, c 1c×3 self-anti-affine;
// greedy tops both a-machines up with b and strands two c, the optimum
// pairs each a with a c — exact 6.375, greedy 4.125).  That is the
// baseline as the paper evaluates it ("essentially an approximation
// algorithm" that leaves containers undeployed under anti-affinity), so
// the gap is held by a tripwire sized from measurement instead of the
// earlier 2.0 guess: over 600,000 draws the greedy never stranded more
// than two containers the optimum places (A = 1 each) and never lost a
// full machine of fragmentation on top — worst gap 2.75.
func TestGreedyNearExact(t *testing.T) {
	const maxGap = 3.0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nApps := 1 + rng.Intn(3)
		var apps []*workload.App
		total := 0
		for i := 0; i < nApps && total < 6; i++ {
			reps := 1 + rng.Intn(3)
			total += reps
			apps = append(apps, &workload.App{
				ID:               string(rune('a' + i)),
				Demand:           resource.Cores(1+rng.Int63n(6), 1024),
				Replicas:         reps,
				AntiAffinitySelf: rng.Intn(2) == 0,
			})
		}
		w, err := workload.New(apps)
		if err != nil {
			return false
		}
		wts := Weights{A: 1, B: 1, C: 0}
		_, exactObj, err := ExactSolve(w, tinyCluster(3), wts)
		if err != nil {
			return false
		}
		clGreedy := tinyCluster(3)
		sch := New(Options{Weights: wts, Sweeps: 3})
		res, err := sch.Schedule(w, clGreedy, w.Arrange(workload.OrderSubmission))
		if err != nil {
			return false
		}
		greedyObj, err := Objective(w, tinyCluster(3), res.Assignment, wts)
		if err != nil {
			return false
		}
		const eps = 1e-9
		if greedyObj > exactObj+eps {
			t.Logf("seed %d: greedy %.3f beats the optimum %.3f", seed, greedyObj, exactObj)
			return false
		}
		st := newState(w, clGreedy)
		for _, id := range res.Undeployed {
			if m := sch.bestMachine(st, w.Container(id), topology.Invalid); m != topology.Invalid {
				t.Logf("seed %d: %s left undeployed though machine %d admits it", seed, id, m)
				return false
			}
		}
		if gap := exactObj - greedyObj; gap > maxGap+eps {
			t.Logf("seed %d: exact %.3f, greedy %.3f, gap %.3f > %.1f", seed, exactObj, greedyObj, gap, maxGap)
			return false
		}
		return true
	}
	// Fixed cases first: the seed that made this test flaky under the
	// 2.0 bound, and the widest gap the measurement found.
	for _, seed := range []int64{-4565365005895353599, 7881068002979003258} {
		if !f(seed) {
			t.Errorf("fixed seed %d failed", seed)
		}
	}
	quickseed.Check(t, f, 40)
}
