package flow

import (
	"math/rand"
	"testing"

	"aladdin/internal/quickseed"
)

// diamond builds the classic 4-node max-flow example with answer 23.
//
//	s -10-> a -4--> b -10-> t
//	s -10-> b        a -8-> t ... (CLRS-style)
func buildCLRS(t *testing.T) (*Graph, NodeID, NodeID) {
	t.Helper()
	g := NewGraph(6)
	s, v1, v2, v3, v4, sink := NodeID(0), NodeID(1), NodeID(2), NodeID(3), NodeID(4), NodeID(5)
	g.MustAddArc(s, v1, 16, 0)
	g.MustAddArc(s, v2, 13, 0)
	g.MustAddArc(v1, v3, 12, 0)
	g.MustAddArc(v2, v1, 4, 0)
	g.MustAddArc(v3, v2, 9, 0)
	g.MustAddArc(v2, v4, 14, 0)
	g.MustAddArc(v4, v3, 7, 0)
	g.MustAddArc(v3, sink, 20, 0)
	g.MustAddArc(v4, sink, 4, 0)
	return g, s, sink
}

func TestMaxFlowCLRS(t *testing.T) {
	g, s, sink := buildCLRS(t)
	got, err := MaxFlow(g, s, sink)
	if err != nil {
		t.Fatal(err)
	}
	if got != 23 {
		t.Errorf("MaxFlow = %d, want 23", got)
	}
}

func TestMaxFlowConservation(t *testing.T) {
	g, s, sink := buildCLRS(t)
	val, err := MaxFlow(g, s, sink)
	if err != nil {
		t.Fatal(err)
	}
	ex := g.Excess()
	for v, e := range ex {
		switch NodeID(v) {
		case s:
			if e != -val {
				t.Errorf("source excess = %d, want %d", e, -val)
			}
		case sink:
			if e != val {
				t.Errorf("sink excess = %d, want %d", e, val)
			}
		default:
			if e != 0 {
				t.Errorf("node %d excess = %d, want 0 (Equation 2)", v, e)
			}
		}
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewGraph(3)
	g.MustAddArc(0, 1, 5, 0)
	// node 2 unreachable
	got, err := MaxFlow(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("MaxFlow disconnected = %d, want 0", got)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	g := NewGraph(2)
	if _, err := MaxFlow(g, 0, 0); err == nil {
		t.Error("source == sink should fail")
	}
	if _, err := MaxFlow(g, -1, 1); err == nil {
		t.Error("bad source should fail")
	}
	if _, err := MaxFlow(g, 0, 5); err == nil {
		t.Error("bad sink should fail")
	}
}

func TestAddArcValidation(t *testing.T) {
	g := NewGraph(2)
	if _, err := g.AddArc(0, 1, -1, 0); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := g.AddArc(0, 7, 1, 0); err == nil {
		t.Error("bad node should fail")
	}
	if _, err := g.AddArc(7, 0, 1, 0); err == nil {
		t.Error("bad from node should fail")
	}
}

func TestMustAddArcPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAddArc should panic on invalid input")
		}
	}()
	NewGraph(1).MustAddArc(0, 5, 1, 0)
}

func TestAddNode(t *testing.T) {
	g := NewGraph(0)
	a := g.AddNode()
	b := g.AddNode()
	if a != 0 || b != 1 || g.NumNodes() != 2 {
		t.Errorf("AddNode ids %d,%d nodes=%d", a, b, g.NumNodes())
	}
}

func TestSPFABasic(t *testing.T) {
	g := NewGraph(4)
	g.MustAddArc(0, 1, 1, 5)
	g.MustAddArc(0, 2, 1, 2)
	g.MustAddArc(2, 1, 1, 1) // 0->2->1 costs 3, cheaper than direct 5
	g.MustAddArc(1, 3, 1, 1)
	dist, via, err := SPFA(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[1] != 3 {
		t.Errorf("dist[1] = %d, want 3", dist[1])
	}
	if dist[3] != 4 {
		t.Errorf("dist[3] = %d, want 4", dist[3])
	}
	if via[3] == -1 {
		t.Error("node 3 should be reachable")
	}
}

func TestSPFAIgnoresSaturatedArcs(t *testing.T) {
	g := NewGraph(3)
	g.MustAddArc(0, 1, 0, 1) // zero capacity: invisible to SPFA
	g.MustAddArc(0, 2, 1, 9)
	g.MustAddArc(2, 1, 1, 1)
	dist, _, err := SPFA(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[1] != 10 {
		t.Errorf("dist[1] = %d, want 10 (direct arc saturated)", dist[1])
	}
}

func TestSPFANegativeCosts(t *testing.T) {
	g := NewGraph(3)
	g.MustAddArc(0, 1, 1, 4)
	g.MustAddArc(1, 2, 1, -2)
	dist, _, err := SPFA(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != 2 {
		t.Errorf("dist[2] = %d, want 2", dist[2])
	}
}

func TestSPFANegativeCycle(t *testing.T) {
	g := NewGraph(2)
	g.MustAddArc(0, 1, 1, -1)
	g.MustAddArc(1, 0, 1, -1)
	if _, _, err := SPFA(g, 0); err == nil {
		t.Error("negative cycle should be detected")
	}
}

func TestMinCostMaxFlow(t *testing.T) {
	// Two disjoint unit paths with costs 3 and 5, plus an expensive
	// shared edge: max flow 2, min cost 8.
	g := NewGraph(4)
	g.MustAddArc(0, 1, 1, 1)
	g.MustAddArc(1, 3, 1, 2)
	g.MustAddArc(0, 2, 1, 2)
	g.MustAddArc(2, 3, 1, 3)
	f, c, err := MinCostMaxFlow(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 2 || c != 8 {
		t.Errorf("MinCostMaxFlow = (%d, %d), want (2, 8)", f, c)
	}
}

func TestMinCostPrefersCheapPath(t *testing.T) {
	// One unit can go cost-1 or cost-100; min cost flow must pick 1.
	g := NewGraph(4)
	g.MustAddArc(0, 1, 1, 1)
	g.MustAddArc(1, 3, 1, 0)
	g.MustAddArc(0, 2, 1, 100)
	g.MustAddArc(2, 3, 1, 0)
	g.MustAddArc(3, 3, 0, 0) // no-op arc, exercise zero-cap handling
	// sink bottleneck of 1:
	g2 := NewGraph(5)
	g2.MustAddArc(0, 1, 1, 1)
	g2.MustAddArc(0, 2, 1, 100)
	g2.MustAddArc(1, 3, 1, 0)
	g2.MustAddArc(2, 3, 1, 0)
	g2.MustAddArc(3, 4, 1, 0)
	f, c, err := MinCostMaxFlow(g2, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 || c != 1 {
		t.Errorf("MinCostMaxFlow = (%d,%d), want (1,1)", f, c)
	}
}

func TestMinCostMaxFlowErrors(t *testing.T) {
	g := NewGraph(2)
	if _, _, err := MinCostMaxFlow(g, 0, 0); err == nil {
		t.Error("source == sink should fail")
	}
	if _, _, err := MinCostMaxFlow(g, 9, 0); err == nil {
		t.Error("bad source should fail")
	}
	if _, _, err := MinCostMaxFlow(g, 0, 9); err == nil {
		t.Error("bad sink should fail")
	}
}

func TestAugmentPath(t *testing.T) {
	g := NewGraph(3)
	a1 := g.MustAddArc(0, 1, 5, 0)
	a2 := g.MustAddArc(1, 2, 5, 0)
	if err := AugmentPath(g, []int{a1, a2}, 3); err != nil {
		t.Fatal(err)
	}
	if g.Arc(a1).Flow() != 3 || g.Arc(a2).Flow() != 3 {
		t.Errorf("flows = %d,%d", g.Arc(a1).Flow(), g.Arc(a2).Flow())
	}
	if g.Arc(a1).Cap != 2 {
		t.Errorf("residual = %d", g.Arc(a1).Cap)
	}
	// Over-capacity augment fails and leaves graph unchanged.
	if err := AugmentPath(g, []int{a1, a2}, 3); err == nil {
		t.Error("over-capacity augment should fail")
	}
	if g.Arc(a1).Flow() != 3 {
		t.Error("failed augment must not mutate")
	}
}

func TestAugmentPathValidation(t *testing.T) {
	g := NewGraph(3)
	a1 := g.MustAddArc(0, 1, 5, 0)
	g.MustAddArc(1, 2, 5, 0)
	a3 := g.MustAddArc(0, 2, 5, 0)
	if err := AugmentPath(g, []int{a1, a3}, 1); err == nil {
		t.Error("discontinuous path should fail")
	}
	if err := AugmentPath(g, []int{a1}, 0); err == nil {
		t.Error("zero augment should fail")
	}
	if err := AugmentPath(g, []int{999}, 1); err == nil {
		t.Error("bad arc index should fail")
	}
}

func TestSetCapacityAndForwardArcs(t *testing.T) {
	g := NewGraph(2)
	idx := g.MustAddArc(0, 1, 5, 7)
	g.SetCapacity(idx, 9)
	if g.Arc(idx).Cap != 9 {
		t.Errorf("SetCapacity: cap = %d", g.Arc(idx).Cap)
	}
	count := 0
	g.ForwardArcs(func(i int, a *Arc) {
		count++
		if a.Cost != 7 {
			t.Errorf("forward arc cost = %d", a.Cost)
		}
	})
	if count != 1 || g.NumArcs() != 1 {
		t.Errorf("forward arcs = %d, NumArcs = %d", count, g.NumArcs())
	}
}

// randomNetwork builds a layered random graph for property testing.
func randomNetwork(rng *rand.Rand, layers, width int) (*Graph, NodeID, NodeID) {
	n := 2 + layers*width
	g := NewGraph(n)
	s, t := NodeID(0), NodeID(n-1)
	node := func(l, w int) NodeID { return NodeID(1 + l*width + w) }
	for w := 0; w < width; w++ {
		g.MustAddArc(s, node(0, w), rng.Int63n(20)+1, rng.Int63n(10))
	}
	for l := 0; l+1 < layers; l++ {
		for a := 0; a < width; a++ {
			for b := 0; b < width; b++ {
				if rng.Intn(2) == 0 {
					g.MustAddArc(node(l, a), node(l+1, b), rng.Int63n(20)+1, rng.Int63n(10))
				}
			}
		}
	}
	for w := 0; w < width; w++ {
		g.MustAddArc(node(layers-1, w), t, rng.Int63n(20)+1, rng.Int63n(10))
	}
	return g, s, t
}

func TestQuickMaxFlowEqualsMinCostFlowValue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g1, s, tt := randomNetwork(rng, 3, 4)
		rng = rand.New(rand.NewSource(seed))
		g2, _, _ := randomNetwork(rng, 3, 4)
		v1, err := MaxFlow(g1, s, tt)
		if err != nil {
			return false
		}
		v2, _, err := MinCostMaxFlow(g2, s, tt)
		if err != nil {
			return false
		}
		return v1 == v2 // both must find the same max-flow value
	}
	quickseed.Check(t, f, 30)
}

func TestQuickFlowConservationRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, s, tt := randomNetwork(rng, 4, 3)
		val, err := MaxFlow(g, s, tt)
		if err != nil {
			return false
		}
		ex := g.Excess()
		for v, e := range ex {
			switch NodeID(v) {
			case s:
				if e != -val {
					return false
				}
			case tt:
				if e != val {
					return false
				}
			default:
				if e != 0 {
					return false
				}
			}
		}
		// Capacity constraint (Equation 1): flow on every forward arc
		// within [0, original cap].  Residual cap must be >= 0.
		ok := true
		g.ForwardArcs(func(i int, a *Arc) {
			if a.Flow() < 0 || a.Cap < 0 {
				ok = false
			}
		})
		return ok
	}
	quickseed.Check(t, f, 30)
}

func TestQuickMinCostNotWorseThanAnyPath(t *testing.T) {
	// The min-cost solver's cost for unit flow equals the SPFA
	// shortest path distance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, s, tt := randomNetwork(rng, 3, 3)
		dist, via, err := SPFA(g, s)
		if err != nil {
			return false
		}
		if via[tt] == -1 {
			return true
		}
		want := dist[tt]
		// Limit to one unit: rebuild with unit source arc.
		g2 := NewGraph(g.NumNodes() + 1)
		super := NodeID(g.NumNodes())
		g.ForwardArcs(func(i int, a *Arc) {
			g2.MustAddArc(a.From, a.To, a.Cap, a.Cost)
		})
		g2.MustAddArc(super, s, 1, 0)
		fl, cost, err := MinCostMaxFlow(g2, super, tt)
		if err != nil {
			return false
		}
		return fl == 1 && cost == want
	}
	quickseed.Check(t, f, 30)
}
