package flow

import (
	"math/rand"
	"testing"

	"aladdin/internal/quickseed"
)

func TestDinicCLRS(t *testing.T) {
	g, s, sink := buildCLRS(t)
	got, err := Dinic(g, s, sink)
	if err != nil {
		t.Fatal(err)
	}
	if got != 23 {
		t.Errorf("Dinic = %d, want 23", got)
	}
}

func TestDinicConservation(t *testing.T) {
	g, s, sink := buildCLRS(t)
	val, err := Dinic(g, s, sink)
	if err != nil {
		t.Fatal(err)
	}
	ex := g.Excess()
	for v, e := range ex {
		switch NodeID(v) {
		case s:
			if e != -val {
				t.Errorf("source excess %d", e)
			}
		case sink:
			if e != val {
				t.Errorf("sink excess %d", e)
			}
		default:
			if e != 0 {
				t.Errorf("node %d excess %d", v, e)
			}
		}
	}
}

func TestDinicErrors(t *testing.T) {
	g := NewGraph(2)
	if _, err := Dinic(g, 0, 0); err == nil {
		t.Error("source == sink should fail")
	}
	if _, err := Dinic(g, -1, 1); err == nil {
		t.Error("bad source should fail")
	}
	if _, err := Dinic(g, 0, 9); err == nil {
		t.Error("bad sink should fail")
	}
}

func TestDinicDisconnected(t *testing.T) {
	g := NewGraph(3)
	g.MustAddArc(0, 1, 5, 0)
	got, err := Dinic(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("Dinic disconnected = %d", got)
	}
}

func TestQuickDinicMatchesEdmondsKarp(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g1, s, tt := randomNetwork(rng, 4, 4)
		rng = rand.New(rand.NewSource(seed))
		g2, _, _ := randomNetwork(rng, 4, 4)
		v1, err := MaxFlow(g1, s, tt)
		if err != nil {
			return false
		}
		v2, err := Dinic(g2, s, tt)
		if err != nil {
			return false
		}
		return v1 == v2
	}
	quickseed.Check(t, f, 50)
}
