package cdg

import (
	"testing"

	"repro/internal/topology"
)

func TestOddEvenAcyclic(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {4, 4}, {8, 8}, {5, 7}, {7, 5}} {
		m := topology.NewMesh(dims[0], dims[1])
		for _, vcs := range []int{1, 2} {
			a := OddEvenBreaker{}.Break(NewFull(m, vcs))
			if !a.IsAcyclic() {
				t.Errorf("%dx%d vcs=%d: odd-even CDG cyclic", dims[0], dims[1], vcs)
			}
		}
	}
}

func TestOddEvenColumnDependentTurns(t *testing.T) {
	m := topology.NewMesh(4, 4)
	a := OddEvenBreaker{}.Break(NewFull(m, 1))
	// EN turn at node (1,1) (odd column): allowed. Same turn at (2,1)
	// (even column): prohibited.
	enEdge := func(x, y int) (VertexID, VertexID, bool) {
		east := m.ChannelAt(m.NodeAt(x-1, y), topology.East)
		north := m.ChannelAt(m.NodeAt(x, y), topology.North)
		if east == topology.InvalidChannel || north == topology.InvalidChannel {
			return 0, 0, false
		}
		return a.Vertex(east, 0), a.Vertex(north, 0), true
	}
	if u, v, ok := enEdge(1, 1); !ok || !a.HasEdge(u, v) {
		t.Error("EN turn at odd column should be allowed")
	}
	if u, v, ok := enEdge(2, 1); !ok || a.HasEdge(u, v) {
		t.Error("EN turn at even column should be prohibited")
	}
}

func TestOddEvenKeepsMoreEdgesThanDOR(t *testing.T) {
	m := topology.NewMesh(8, 8)
	full := NewFull(m, 1)
	oe := OddEvenBreaker{}.Break(full)
	xy := TurnBreaker{Rule: XYOrder}.Break(full)
	if oe.NumEdges() <= xy.NumEdges() {
		t.Errorf("odd-even (%d edges) should be less restrictive than XY (%d)",
			oe.NumEdges(), xy.NumEdges())
	}
}

func TestOddEvenRequiresMesh(t *testing.T) {
	tr := topology.NewTorus(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("torus accepted")
		}
	}()
	OddEvenBreaker{}.Break(NewFull(tr, 1))
}

func TestExtendedBreakers(t *testing.T) {
	bs := ExtendedBreakers()
	if len(bs) != 16 {
		t.Fatalf("%d extended breakers, want 16", len(bs))
	}
	found := false
	for _, b := range bs {
		if b.Name() == "odd-even" {
			found = true
		}
	}
	if !found {
		t.Error("odd-even missing from extended set")
	}
	m := topology.NewMesh(4, 4)
	full := NewFull(m, 1)
	for _, b := range bs {
		if !b.Break(full).IsAcyclic() {
			t.Errorf("%s cyclic", b.Name())
		}
	}
}
