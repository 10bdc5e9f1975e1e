package workload

import (
	"strings"
	"testing"

	"aladdin/internal/resource"
)

func twoApps() []*App {
	return []*App{
		{ID: "web", Demand: resource.Cores(4, 8192), Replicas: 3, Priority: PriorityHigh, AntiAffinitySelf: true, AntiAffinityApps: []string{"db"}},
		{ID: "db", Demand: resource.Cores(8, 16384), Replicas: 2, Priority: PriorityLow},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]*App{{ID: "a", Replicas: 0, Demand: resource.Cores(1, 1)}}); err == nil {
		t.Error("zero replicas should be rejected")
	}
	if _, err := New([]*App{
		{ID: "a", Replicas: 1, Demand: resource.Cores(1, 1)},
		{ID: "a", Replicas: 1, Demand: resource.Cores(1, 1)},
	}); err == nil {
		t.Error("duplicate app IDs should be rejected")
	}
	if _, err := New([]*App{
		{ID: "a", Replicas: 1, Demand: resource.Cores(1, 1), AntiAffinityApps: []string{"ghost"}},
	}); err == nil {
		t.Error("unknown anti-affinity reference should be rejected")
	}
	if _, err := New([]*App{
		{ID: "a", Replicas: 1, Demand: resource.Cores(1, 1), AntiAffinityApps: []string{"a"}},
	}); err == nil {
		t.Error("self reference in AntiAffinityApps should be rejected")
	}
	if _, err := New([]*App{
		{ID: "", Replicas: 1, Demand: resource.Cores(1, 1)},
	}); err == nil {
		t.Error("empty app ID should be rejected")
	}
	if _, err := New([]*App{
		{ID: "neg", Replicas: 1, Demand: resource.Milli(-1, 10)},
	}); err == nil {
		t.Error("negative CPU demand should be rejected")
	}
	if _, err := New([]*App{
		{ID: "neg2", Replicas: 1, Demand: resource.Milli(1, -10)},
	}); err == nil {
		t.Error("negative memory demand should be rejected")
	}
}

func TestContainersMaterialization(t *testing.T) {
	w := MustNew(twoApps())
	if w.NumContainers() != 5 {
		t.Fatalf("NumContainers = %d, want 5", w.NumContainers())
	}
	cs := w.Containers()
	for _, c := range cs {
		app := w.App(c.App)
		if app == nil {
			t.Fatalf("container %s references unknown app", c.ID)
		}
		if c.Demand != app.Demand {
			t.Errorf("container %s demand %v != app demand %v (isomorphism)", c.ID, c.Demand, app.Demand)
		}
		if c.Priority != app.Priority {
			t.Errorf("container %s priority mismatch", c.ID)
		}
		if !strings.HasPrefix(c.ID, c.App+"/") {
			t.Errorf("container ID %q not derived from app %q", c.ID, c.App)
		}
	}
	// IDs are unique.
	seen := map[string]bool{}
	for _, c := range cs {
		if seen[c.ID] {
			t.Errorf("duplicate container ID %s", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestAntiAffine(t *testing.T) {
	w := MustNew(twoApps())
	if !w.AntiAffine("web", "db") {
		t.Error("web/db should be anti-affine")
	}
	if !w.AntiAffine("db", "web") {
		t.Error("anti-affinity must be symmetric")
	}
	if !w.AntiAffine("web", "web") {
		t.Error("web has self anti-affinity")
	}
	if w.AntiAffine("db", "db") {
		t.Error("db has no self anti-affinity")
	}
	if w.AntiAffine("web", "ghost") {
		t.Error("unknown app should not be anti-affine")
	}
}

func TestConflictDegree(t *testing.T) {
	w := MustNew(twoApps())
	// web: 2 siblings (self) + 2 db containers = 4
	if got := w.ConflictDegree("web"); got != 4 {
		t.Errorf("ConflictDegree(web) = %d, want 4", got)
	}
	// db: no self, 3 web containers
	if got := w.ConflictDegree("db"); got != 3 {
		t.Errorf("ConflictDegree(db) = %d, want 3", got)
	}
	if got := w.ConflictDegree("ghost"); got != 0 {
		t.Errorf("ConflictDegree(ghost) = %d, want 0", got)
	}
}

func TestComputeStats(t *testing.T) {
	apps := []*App{
		{ID: "single", Demand: resource.Cores(1, 1024), Replicas: 1},
		{ID: "mid", Demand: resource.Cores(2, 2048), Replicas: 49, Priority: PriorityHigh},
		{ID: "big", Demand: resource.Cores(16, 32768), Replicas: 2500, AntiAffinitySelf: true},
	}
	w := MustNew(apps)
	s := w.ComputeStats()
	if s.Apps != 3 || s.Containers != 2550 {
		t.Errorf("Apps/Containers = %d/%d", s.Apps, s.Containers)
	}
	if s.SingleInstanceApps != 1 {
		t.Errorf("SingleInstanceApps = %d", s.SingleInstanceApps)
	}
	if s.AppsUnder50 != 2 {
		t.Errorf("AppsUnder50 = %d", s.AppsUnder50)
	}
	if s.AppsOver2000 != 1 {
		t.Errorf("AppsOver2000 = %d", s.AppsOver2000)
	}
	if s.AntiAffinityApps != 1 {
		t.Errorf("AntiAffinityApps = %d", s.AntiAffinityApps)
	}
	if s.PriorityApps != 1 {
		t.Errorf("PriorityApps = %d", s.PriorityApps)
	}
	if s.MaxDemand != resource.Cores(16, 32768) {
		t.Errorf("MaxDemand = %v", s.MaxDemand)
	}
}

func TestReplicaCDFSorted(t *testing.T) {
	w := MustNew([]*App{
		{ID: "a", Demand: resource.Cores(1, 1), Replicas: 7},
		{ID: "b", Demand: resource.Cores(1, 1), Replicas: 1},
		{ID: "c", Demand: resource.Cores(1, 1), Replicas: 3},
	})
	cdf := w.ReplicaCDF()
	want := []int{1, 3, 7}
	for i := range want {
		if cdf[i] != want[i] {
			t.Fatalf("ReplicaCDF = %v, want %v", cdf, want)
		}
	}
}

func TestArrangePriorityOrders(t *testing.T) {
	w := MustNew([]*App{
		{ID: "lo", Demand: resource.Cores(1, 1), Replicas: 2, Priority: PriorityLow},
		{ID: "hi", Demand: resource.Cores(1, 1), Replicas: 2, Priority: PriorityHigh},
		{ID: "mid", Demand: resource.Cores(1, 1), Replicas: 1, Priority: PriorityMid},
	})
	chp := w.Arrange(OrderCHP)
	for i := 1; i < len(chp); i++ {
		if chp[i-1].Priority < chp[i].Priority {
			t.Fatalf("CHP not descending at %d: %v then %v", i, chp[i-1].Priority, chp[i].Priority)
		}
	}
	clp := w.Arrange(OrderCLP)
	for i := 1; i < len(clp); i++ {
		if clp[i-1].Priority > clp[i].Priority {
			t.Fatalf("CLP not ascending at %d", i)
		}
	}
	// Arrange must not disturb the workload's own order.
	if w.Containers()[0].App != "lo" {
		t.Error("Arrange mutated workload container order")
	}
}

func TestArrangeAffinityOrders(t *testing.T) {
	w := MustNew([]*App{
		{ID: "calm", Demand: resource.Cores(1, 1), Replicas: 3},
		{ID: "spiky", Demand: resource.Cores(1, 1), Replicas: 2, AntiAffinitySelf: true, AntiAffinityApps: []string{"calm"}},
	})
	cla := w.Arrange(OrderCLA)
	if cla[0].App != "spiky" {
		t.Errorf("CLA should start with the most-constrained app, got %s", cla[0].App)
	}
	csa := w.Arrange(OrderCSA)
	if csa[0].App != "calm" {
		t.Errorf("CSA should start with the least-constrained app, got %s", csa[0].App)
	}
	// CLA and CSA must be exact reverses at the app level here.
	if len(cla) != len(csa) {
		t.Fatal("length mismatch")
	}
}

func TestArrangeSubmissionAndDeterminism(t *testing.T) {
	w := MustNew(twoApps())
	sub := w.Arrange(OrderSubmission)
	for i, c := range w.Containers() {
		if sub[i] != c {
			t.Fatal("submission order should match native order")
		}
	}
	a := w.Arrange(OrderCHP)
	b := w.Arrange(OrderCHP)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("Arrange must be deterministic")
		}
	}
}

func TestArrangeInterleaved(t *testing.T) {
	w := MustNew([]*App{
		{ID: "a", Demand: resource.Cores(1, 1), Replicas: 3},
		{ID: "b", Demand: resource.Cores(1, 1), Replicas: 1},
		{ID: "c", Demand: resource.Cores(1, 1), Replicas: 2},
	})
	got := w.Arrange(OrderInterleaved)
	want := []string{"a/0", "b/0", "c/0", "a/1", "c/1", "a/2"}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i] {
			t.Fatalf("interleaved[%d] = %s, want %s (full: %v)", i, got[i].ID, want[i], ids(got))
		}
	}
}

func ids(cs []*Container) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}

func TestArrivalOrderStrings(t *testing.T) {
	cases := map[ArrivalOrder]string{
		OrderSubmission:  "submission",
		OrderCHP:         "CHP",
		OrderCLP:         "CLP",
		OrderCLA:         "CLA",
		OrderCSA:         "CSA",
		ArrivalOrder(99): "unknown",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
	if len(AllArrivalOrders()) != 4 {
		t.Error("AllArrivalOrders should list 4 orders")
	}
}

func TestArrangeUnknownOrderFallsBack(t *testing.T) {
	w := MustNew(twoApps())
	got := w.Arrange(ArrivalOrder(99))
	native := w.Containers()
	if len(got) != len(native) {
		t.Fatal("length mismatch")
	}
	for i := range got {
		if got[i] != native[i] {
			t.Fatal("unknown order should fall back to native order")
		}
	}
}

func TestAntiAffinePartnersSymmetric(t *testing.T) {
	w := MustNew([]*App{
		{ID: "a", Demand: resource.Cores(1, 1), Replicas: 1, AntiAffinityApps: []string{"b", "c"}},
		{ID: "b", Demand: resource.Cores(1, 1), Replicas: 1},
		{ID: "c", Demand: resource.Cores(1, 1), Replicas: 1, AntiAffinityApps: []string{"b"}},
	})
	got := w.AntiAffinePartners("b")
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("partners of b = %v, want [a c]", got)
	}
	if len(w.AntiAffinePartners("ghost")) != 0 {
		t.Error("unknown app should have no partners")
	}
}

func TestPriorityString(t *testing.T) {
	if PriorityLow.String() != "low" || PriorityMid.String() != "mid" || PriorityHigh.String() != "high" {
		t.Error("priority names")
	}
	if Priority(9).String() != "prio(9)" {
		t.Error("unknown priority name")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid input")
		}
	}()
	MustNew([]*App{{ID: "bad", Replicas: -1}})
}

// TestContainerByID: the ID index agrees with Containers() at every
// ordinal and knows nothing else.
func TestContainerByID(t *testing.T) {
	w := MustNew(twoApps())
	for ord, c := range w.Containers() {
		if got := w.Container(c.ID); got != c || got.Ord != ord {
			t.Errorf("Container(%q) = %+v, want the container at ordinal %d", c.ID, got, ord)
		}
	}
	for _, id := range []string{"", "web", "web/3", "web/-1", "db/00", "ghost/0"} {
		if got := w.Container(id); got != nil {
			t.Errorf("Container(%q) = %+v, want nil", id, got)
		}
	}
}
