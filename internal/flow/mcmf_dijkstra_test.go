package flow

import (
	"math/rand"
	"testing"

	"aladdin/internal/quickseed"
)

func TestMCMFDijkstraBasic(t *testing.T) {
	g := NewGraph(4)
	g.MustAddArc(0, 1, 1, 1)
	g.MustAddArc(1, 3, 1, 2)
	g.MustAddArc(0, 2, 1, 2)
	g.MustAddArc(2, 3, 1, 3)
	f, c, err := MinCostMaxFlowDijkstra(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 2 || c != 8 {
		t.Errorf("got (%d,%d), want (2,8)", f, c)
	}
}

func TestMCMFDijkstraNegativeArcs(t *testing.T) {
	g := NewGraph(3)
	g.MustAddArc(0, 1, 2, 5)
	g.MustAddArc(1, 2, 2, -3)
	f, c, err := MinCostMaxFlowDijkstra(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f != 2 || c != 4 {
		t.Errorf("got (%d,%d), want (2,4)", f, c)
	}
}

func TestMCMFDijkstraErrors(t *testing.T) {
	g := NewGraph(2)
	if _, _, err := MinCostMaxFlowDijkstra(g, 0, 0); err == nil {
		t.Error("source == sink should fail")
	}
	if _, _, err := MinCostMaxFlowDijkstra(g, 5, 0); err == nil {
		t.Error("bad source should fail")
	}
	if _, _, err := MinCostMaxFlowDijkstra(g, 0, 5); err == nil {
		t.Error("bad sink should fail")
	}
	// Negative cycle propagates SPFA's error.
	g2 := NewGraph(3)
	g2.MustAddArc(0, 1, 1, -1)
	g2.MustAddArc(1, 0, 1, -1)
	g2.MustAddArc(1, 2, 1, 0)
	if _, _, err := MinCostMaxFlowDijkstra(g2, 0, 2); err == nil {
		t.Error("negative cycle should fail")
	}
}

func TestMCMFDijkstraUnreachableSink(t *testing.T) {
	g := NewGraph(3)
	g.MustAddArc(0, 1, 5, 1)
	f, c, err := MinCostMaxFlowDijkstra(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0 || c != 0 {
		t.Errorf("unreachable sink: got (%d,%d)", f, c)
	}
}

func TestQuickMCMFDijkstraMatchesSPFA(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g1, s, tt := randomNetwork(rng, 4, 4)
		rng = rand.New(rand.NewSource(seed))
		g2, _, _ := randomNetwork(rng, 4, 4)
		f1, c1, err := MinCostMaxFlow(g1, s, tt)
		if err != nil {
			return false
		}
		f2, c2, err := MinCostMaxFlowDijkstra(g2, s, tt)
		if err != nil {
			return false
		}
		return f1 == f2 && c1 == c2
	}
	quickseed.Check(t, f, 60)
}
