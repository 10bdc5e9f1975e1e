package constraint

import (
	"testing"

	"aladdin/internal/quickseed"
	"aladdin/internal/resource"
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

func testWorkload() *workload.Workload {
	return workload.MustNew([]*workload.App{
		{ID: "web", Demand: resource.Cores(4, 8192), Replicas: 3, Priority: workload.PriorityHigh, AntiAffinitySelf: true, AntiAffinityApps: []string{"db"}},
		{ID: "db", Demand: resource.Cores(8, 16384), Replicas: 2, Priority: workload.PriorityLow},
		{ID: "cache", Demand: resource.Cores(2, 4096), Replicas: 2, Priority: workload.PriorityMid},
	})
}

func cont(w *workload.Workload, app string, idx int) *workload.Container {
	for _, c := range w.Containers() {
		if c.App == app && c.Index == idx {
			return c
		}
	}
	panic("container not found")
}

func TestBlacklistSelfAntiAffinity(t *testing.T) {
	w := testWorkload()
	b := NewBlacklist(w, 4)
	web0, web1 := cont(w, "web", 0), cont(w, "web", 1)
	if !b.Allows(0, web0) {
		t.Fatal("fresh machine should allow")
	}
	b.Place(0, web0)
	if b.Allows(0, web1) {
		t.Error("self anti-affinity: sibling must be blocked on same machine")
	}
	if !b.Allows(1, web1) {
		t.Error("sibling must be allowed on a different machine")
	}
}

func TestBlacklistAcrossApps(t *testing.T) {
	w := testWorkload()
	b := NewBlacklist(w, 4)
	web0, db0 := cont(w, "web", 0), cont(w, "db", 0)
	b.Place(0, web0)
	if b.Allows(0, db0) {
		t.Error("web blocks db on machine 0 (declared by web)")
	}
	// And the reverse direction: db placed first blocks web, even
	// though only web declared the pair (symmetry).
	b2 := NewBlacklist(w, 4)
	b2.Place(0, db0)
	if b2.Allows(0, web0) {
		t.Error("db must block web symmetrically")
	}
	cache0 := cont(w, "cache", 0)
	if !b.Allows(0, cache0) {
		t.Error("cache is unconstrained and must be allowed")
	}
}

func TestBlacklistNoSelfConstraint(t *testing.T) {
	w := testWorkload()
	b := NewBlacklist(w, 2)
	db0, db1 := cont(w, "db", 0), cont(w, "db", 1)
	b.Place(0, db0)
	if !b.Allows(0, db1) {
		t.Error("db has no self anti-affinity; siblings may co-locate")
	}
}

func TestBlacklistReleaseRestores(t *testing.T) {
	w := testWorkload()
	b := NewBlacklist(w, 2)
	web0, web1, db0 := cont(w, "web", 0), cont(w, "web", 1), cont(w, "db", 0)
	b.Place(0, web0)
	b.Place(0, web1) // hypothetical violating placement still counts twice
	b.Release(0, web0)
	if b.Allows(0, db0) {
		t.Error("one web remains; db still blocked")
	}
	b.Release(0, web1)
	if !b.Allows(0, db0) {
		t.Error("all webs released; db must be allowed again")
	}
	if !b.Allows(0, web0) {
		t.Error("web itself must be allowed again")
	}
}

func TestBlacklistReset(t *testing.T) {
	w := testWorkload()
	b := NewBlacklist(w, 2)
	b.Place(0, cont(w, "web", 0))
	b.Reset()
	if !b.Allows(0, cont(w, "db", 0)) {
		t.Error("Reset must clear blacklists")
	}
	if b.BlockedApps(0) != 0 {
		t.Error("BlockedApps after reset should be 0")
	}
}

// TestConflictsRefMatchesAntiAffine checks the ordinal conflict query
// against the workload's name-keyed one on every app pair, in both
// argument orders, plus the unknown-app sentinel.
func TestConflictsRefMatchesAntiAffine(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "web", Demand: resource.Cores(4, 8192), Replicas: 1, AntiAffinitySelf: true, AntiAffinityApps: []string{"db", "cache"}},
		{ID: "db", Demand: resource.Cores(8, 16384), Replicas: 1, AntiAffinityApps: []string{"batch"}},
		{ID: "cache", Demand: resource.Cores(2, 4096), Replicas: 1},
		{ID: "batch", Demand: resource.Cores(2, 4096), Replicas: 1, AntiAffinitySelf: true},
		{ID: "solo", Demand: resource.Cores(1, 1024), Replicas: 1},
	})
	b := NewBlacklist(w, 1)
	for _, x := range w.Apps() {
		for _, y := range w.Apps() {
			if got, want := b.ConflictsRef(b.Ref(x.ID), b.Ref(y.ID)), w.AntiAffine(x.ID, y.ID); got != want {
				t.Errorf("ConflictsRef(%s, %s) = %v, AntiAffine = %v", x.ID, y.ID, got, want)
			}
		}
		if b.ConflictsRef(b.Ref(x.ID), NoApp) || b.ConflictsRef(NoApp, b.Ref(x.ID)) {
			t.Errorf("ConflictsRef(%s, NoApp) = true", x.ID)
		}
	}
}

func TestBlockedApps(t *testing.T) {
	w := testWorkload()
	b := NewBlacklist(w, 2)
	b.Place(0, cont(w, "web", 0))
	// web blocks: web (self) and db -> 2 apps
	if got := b.BlockedApps(0); got != 2 {
		t.Errorf("BlockedApps = %d, want 2", got)
	}
	if got := b.BlockedApps(1); got != 0 {
		t.Errorf("BlockedApps(untouched) = %d, want 0", got)
	}
}

func TestBlacklistReleaseOnEmptyMachine(t *testing.T) {
	w := testWorkload()
	b := NewBlacklist(w, 1)
	// Must not panic or underflow.
	b.Release(0, cont(w, "web", 0))
	if !b.Allows(0, cont(w, "db", 0)) {
		t.Error("release on empty machine must be a no-op")
	}
}

func TestWeightLadderDerived(t *testing.T) {
	w := testWorkload()
	l := NewWeightLadder(w, 0) // minimal safe ladder
	if l.Weight(workload.PriorityLow) != 1 {
		t.Errorf("w1 = %d, want 1 (Equation 4)", l.Weight(workload.PriorityLow))
	}
	if err := l.Verify(w); err != nil {
		t.Errorf("derived ladder must verify: %v", err)
	}
	// Strictly increasing across occupied classes.
	if !(l.Weight(workload.PriorityMid) > l.Weight(workload.PriorityLow)) {
		t.Error("mid weight must exceed low weight")
	}
	if !(l.Weight(workload.PriorityHigh) > l.Weight(workload.PriorityMid)) {
		t.Error("high weight must exceed mid weight")
	}
}

func TestWeightLadderConfiguredBase(t *testing.T) {
	w := testWorkload()
	for _, base := range []int64{16, 32, 64, 128} {
		l := NewWeightLadder(w, base)
		if err := l.Verify(w); err != nil {
			t.Errorf("base %d: %v", base, err)
		}
		if got := l.Weight(workload.PriorityMid); got < base {
			t.Errorf("base %d: mid weight %d below configured base", base, got)
		}
	}
}

func TestWeightLadderUnknownPriority(t *testing.T) {
	w := testWorkload()
	l := NewWeightLadder(w, 16)
	if l.Weight(workload.Priority(42)) != 1 {
		t.Error("unknown priority should fall back to weight 1")
	}
}

func TestWeightedFlowDominance(t *testing.T) {
	w := testWorkload()
	l := NewWeightLadder(w, 16)
	// Every high-priority container's weighted flow must exceed every
	// lower-priority one's (§III.B's no-preemption-of-high guarantee).
	for _, a := range w.Containers() {
		for _, b := range w.Containers() {
			if a.Priority > b.Priority {
				if l.WeightedFlow(a) <= l.WeightedFlow(b) {
					t.Fatalf("weighted flow of %s (%v) = %d not > %s (%v) = %d",
						a.ID, a.Priority, l.WeightedFlow(a), b.ID, b.Priority, l.WeightedFlow(b))
				}
			}
		}
	}
}

func TestWeightedFlowZeroDemand(t *testing.T) {
	w := workload.MustNew([]*workload.App{
		{ID: "z", Demand: resource.Vector{}, Replicas: 1},
	})
	l := NewWeightLadder(w, 16)
	if l.WeightedFlow(w.Containers()[0]) < 1 {
		t.Error("zero-demand container should still have positive weighted flow")
	}
}

func TestQuickWeightLadderAlwaysVerifies(t *testing.T) {
	f := func(demands []uint8) bool {
		if len(demands) == 0 {
			return true
		}
		if len(demands) > 12 {
			demands = demands[:12]
		}
		apps := make([]*workload.App, len(demands))
		for i, d := range demands {
			apps[i] = &workload.App{
				ID:       string(rune('a' + i)),
				Demand:   resource.Cores(int64(d%16)+1, 1024),
				Replicas: 1,
				Priority: workload.Priority(i % 3),
			}
		}
		w, err := workload.New(apps)
		if err != nil {
			return false
		}
		return NewWeightLadder(w, 0).Verify(w) == nil &&
			NewWeightLadder(w, 16).Verify(w) == nil
	}
	quickseed.Check(t, f, 200)
}

func TestAuditAntiAffinity(t *testing.T) {
	w := testWorkload()
	asg := Assignment{
		"web/0": 0,
		"web/1": 0, // within violation
		"web/2": 1,
		"db/0":  1, // across violation with web/2
		"db/1":  2,
	}
	vs := AuditAntiAffinity(w, asg)
	s := Summarize(vs)
	if s.Within != 1 {
		t.Errorf("Within = %d, want 1", s.Within)
	}
	if s.Across != 1 {
		t.Errorf("Across = %d, want 1", s.Across)
	}
	if s.Total() != 2 {
		t.Errorf("Total = %d, want 2", s.Total())
	}
}

func TestAuditCleanPlacement(t *testing.T) {
	w := testWorkload()
	asg := Assignment{
		"web/0": 0, "web/1": 1, "web/2": 2,
		"db/0": 3, "db/1": 3, // db may co-locate with itself
		"cache/0": 0, "cache/1": 0, // cache unconstrained
	}
	if vs := AuditAntiAffinity(w, asg); len(vs) != 0 {
		t.Errorf("clean placement reported violations: %v", vs)
	}
}

func TestAuditIgnoresUndeployed(t *testing.T) {
	w := testWorkload()
	asg := Assignment{
		"web/0": 0,
		"web/1": topology.Invalid, // undeployed: not a violation
	}
	if vs := AuditAntiAffinity(w, asg); len(vs) != 0 {
		t.Errorf("undeployed container should not violate: %v", vs)
	}
}

func TestAuditDeterministic(t *testing.T) {
	w := testWorkload()
	asg := Assignment{"web/0": 0, "web/1": 0, "db/0": 0}
	a := AuditAntiAffinity(w, asg)
	b := AuditAntiAffinity(w, asg)
	if len(a) != len(b) {
		t.Fatal("non-deterministic audit")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic audit ordering")
		}
	}
}

func TestViolationStrings(t *testing.T) {
	if AntiAffinityWithin.String() != "anti-affinity-within" ||
		AntiAffinityAcross.String() != "anti-affinity-across" ||
		PriorityInversion.String() != "priority-inversion" {
		t.Error("violation kind names")
	}
	if ViolationKind(9).String() != "unknown" {
		t.Error("unknown kind name")
	}
	v := Violation{Kind: AntiAffinityAcross, Machine: 3, ContainerA: "a/0", ContainerB: "b/0"}
	if v.String() == "" {
		t.Error("violation String should render")
	}
}

func TestSummarizeInversions(t *testing.T) {
	s := Summarize([]Violation{{Kind: PriorityInversion}, {Kind: PriorityInversion}})
	if s.Inversions != 2 || s.Total() != 2 {
		t.Errorf("Summarize inversions = %+v", s)
	}
}

// Property: Allows is exactly the audit's verdict — placing a set of
// containers one machine at a time, a container that Allows() accepts
// never creates an anti-affinity violation.
func TestQuickBlacklistMatchesAudit(t *testing.T) {
	w := testWorkload()
	cs := w.Containers()
	f := func(choices []uint8) bool {
		b := NewBlacklist(w, 3)
		asg := Assignment{}
		for i, c := range cs {
			if i >= len(choices) {
				break
			}
			m := topology.MachineID(choices[i] % 3)
			if b.Allows(m, c) {
				b.Place(m, c)
				asg[c.ID] = m
			}
		}
		return len(AuditAntiAffinity(w, asg)) == 0
	}
	quickseed.Check(t, f, 300)
}
