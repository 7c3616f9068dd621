package flowgraph

import (
	"fmt"
	"testing"

	"repro/internal/cdg"
	"repro/internal/topology"
)

func mesh3x3DAG(t *testing.T, vcs int) *cdg.Graph {
	t.Helper()
	m := topology.NewMesh(3, 3)
	return cdg.TurnBreaker{Rule: cdg.WestFirst}.Break(cdg.NewFull(m, vcs))
}

func TestNewRejectsCyclicCDG(t *testing.T) {
	m := topology.NewMesh(3, 3)
	full := cdg.NewFull(m, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("cyclic CDG accepted")
		}
	}()
	New(full, nil, 1000)
}

func TestNewRejectsDegenerateFlow(t *testing.T) {
	dag := mesh3x3DAG(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("self-flow accepted")
		}
	}()
	New(dag, []Flow{{ID: 0, Name: "bad", Src: 3, Dst: 3, Demand: 1}}, 1000)
}

func TestTerminalWiring(t *testing.T) {
	dag := mesh3x3DAG(t, 1)
	m := dag.Topology().(*topology.Mesh)
	flows := []Flow{
		{ID: 0, Name: "f0", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 10},
		{ID: 1, Name: "f1", Src: m.NodeAt(2, 0), Dst: m.NodeAt(0, 2), Demand: 5},
	}
	g := New(dag, flows, 1000)
	if g.NumVertices() != dag.NumVertices()+4 {
		t.Fatalf("vertices = %d, want %d", g.NumVertices(), dag.NumVertices()+4)
	}
	// Source terminal of flow 0 must reach exactly the out-channels of (0,0):
	// east and north, one VC each.
	src := g.SrcTerminal(0)
	if got := len(g.Out(src)); got != 2 {
		t.Errorf("src terminal out-degree = %d, want 2", got)
	}
	for _, v := range g.Out(src) {
		ch, _ := g.ChannelVC(v)
		if m.Channel(ch).Src != flows[0].Src {
			t.Errorf("source terminal wired to channel not leaving the source")
		}
	}
	// Sink terminal of flow 0 has no successors; channels entering (2,2)
	// must have an edge to it.
	snk := g.SinkTerminal(0)
	if len(g.Out(snk)) != 0 {
		t.Error("sink terminal has successors")
	}
	inEdges := 0
	for _, ch := range m.InChannels(flows[0].Dst) {
		v := VertexID(dag.Vertex(ch, 0))
		for _, w := range g.Out(v) {
			if w == snk {
				inEdges++
			}
		}
	}
	if inEdges != len(m.InChannels(flows[0].Dst)) {
		t.Errorf("sink wired from %d channels, want %d",
			inEdges, len(m.InChannels(flows[0].Dst)))
	}
}

func TestTerminalWiringMultiVC(t *testing.T) {
	dag := mesh3x3DAG(t, 2)
	m := dag.Topology().(*topology.Mesh)
	flows := []Flow{{ID: 0, Name: "f0", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 1}}
	g := New(dag, flows, 1000)
	// 2 out-channels x 2 VCs.
	if got := len(g.Out(g.SrcTerminal(0))); got != 4 {
		t.Errorf("src terminal out-degree = %d, want 4", got)
	}
}

func TestEnumeratePathsMinimal(t *testing.T) {
	dag := mesh3x3DAG(t, 1)
	m := dag.Topology().(*topology.Mesh)
	// Corner to corner on 3x3: minimal hops = 4.
	flows := []Flow{{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 1}}
	g := New(dag, flows, 1000)
	paths := g.EnumeratePathsDedup(0, 4, 0)
	if len(paths) == 0 {
		t.Fatal("no minimal paths found")
	}
	// West-first allows all six monotone NE staircase paths (no W/S travel,
	// so no prohibited turn applies): C(4,2) = 6.
	if len(paths) != 6 {
		t.Errorf("minimal path count = %d, want 6", len(paths))
	}
	for _, p := range paths {
		if len(p) != 4 {
			t.Errorf("path length %d, want 4", len(p))
		}
		if err := g.Validate(0, p); err != nil {
			t.Errorf("invalid path: %v", err)
		}
	}
}

func TestEnumeratePathsNonMinimalAndCaps(t *testing.T) {
	dag := mesh3x3DAG(t, 1)
	m := dag.Topology().(*topology.Mesh)
	flows := []Flow{{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 1}}
	g := New(dag, flows, 1000)
	minimal := g.EnumeratePathsDedup(0, 4, 0)
	wider := g.EnumeratePathsDedup(0, 6, 0)
	if len(wider) <= len(minimal) {
		t.Errorf("hop slack added no paths: %d vs %d", len(wider), len(minimal))
	}
	for _, p := range wider {
		if len(p) > 6 {
			t.Errorf("path exceeds hop budget: %d", len(p))
		}
		if err := g.Validate(0, p); err != nil {
			t.Errorf("invalid path: %v", err)
		}
	}
	capped := g.EnumeratePathsDedup(0, 6, 3)
	if len(capped) != 3 {
		t.Errorf("maxPaths ignored: got %d", len(capped))
	}
}

func TestEnumeratePathsRespectsProhibitedTurns(t *testing.T) {
	m := topology.NewMesh(3, 3)
	dag := cdg.TurnBreaker{Rule: cdg.XYOrder}.Break(cdg.NewFull(m, 1))
	flows := []Flow{{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 1}}
	g := New(dag, flows, 1000)
	// Under XY order there is exactly one minimal route: EENN.
	paths := g.EnumeratePathsDedup(0, 4, 0)
	if len(paths) != 1 {
		t.Fatalf("XY minimal paths = %d, want 1", len(paths))
	}
	dirs := []topology.Direction{}
	for _, v := range paths[0] {
		ch, _ := dag.ChannelVC(v)
		dirs = append(dirs, m.Channel(ch).Dir)
	}
	want := []topology.Direction{topology.East, topology.East, topology.North, topology.North}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("XY path dirs = %v, want %v", dirs, want)
		}
	}
}

func TestPathsAvoidOtherFlowTerminals(t *testing.T) {
	dag := mesh3x3DAG(t, 1)
	m := dag.Topology().(*topology.Mesh)
	// Flow 1's sink lies on flow 0's natural route; enumeration must pass
	// through, not terminate there.
	flows := []Flow{
		{ID: 0, Name: "f0", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 1},
		{ID: 1, Name: "f1", Src: m.NodeAt(0, 2), Dst: m.NodeAt(1, 1), Demand: 1},
	}
	g := New(dag, flows, 1000)
	for _, p := range g.EnumeratePathsDedup(0, 6, 0) {
		if err := g.Validate(0, p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestValidateRejectsBadPaths(t *testing.T) {
	dag := mesh3x3DAG(t, 1)
	m := dag.Topology().(*topology.Mesh)
	flows := []Flow{{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 1}}
	g := New(dag, flows, 1000)
	if err := g.Validate(0, nil); err == nil {
		t.Error("empty path accepted")
	}
	// A path starting from the wrong node.
	wrongStart := Path{dag.Vertex(m.ChannelAt(m.NodeAt(1, 0), topology.East), 0)}
	if err := g.Validate(0, wrongStart); err == nil {
		t.Error("wrong start accepted")
	}
	// A path ending at the wrong node.
	wrongEnd := Path{dag.Vertex(m.ChannelAt(m.NodeAt(0, 0), topology.East), 0)}
	if err := g.Validate(0, wrongEnd); err == nil {
		t.Error("wrong end accepted")
	}
}

func TestCapacities(t *testing.T) {
	dag := mesh3x3DAG(t, 1)
	g := New(dag, nil, 1234)
	for ch := topology.ChannelID(0); ch < topology.ChannelID(g.Topology().NumChannels()); ch++ {
		if g.Capacity(ch) != 1234 {
			t.Fatalf("capacity of %d = %g", ch, g.Capacity(ch))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong capacity vector length accepted")
		}
	}()
	NewWithCapacities(dag, nil, []float64{1})
}

func TestChannelsProjection(t *testing.T) {
	dag := mesh3x3DAG(t, 2)
	m := dag.Topology().(*topology.Mesh)
	flows := []Flow{{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 0), Demand: 1}}
	g := New(dag, flows, 1000)
	paths := g.EnumeratePathsDedup(0, 2, 0)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	// Two VCs: the enumerator yields one path per distinct channel
	// sequence, not one per VC labeling of it.
	seen := map[string]bool{}
	for _, p := range paths {
		if err := g.Validate(0, p); err != nil {
			t.Errorf("invalid path: %v", err)
		}
		chs := g.Channels(p)
		if key := fmt.Sprint(chs); seen[key] {
			t.Errorf("channel sequence %s enumerated twice", key)
		} else {
			seen[key] = true
		}
		if len(chs) != len(p) {
			t.Fatal("projection length mismatch")
		}
		for i, v := range p {
			ch, _ := dag.ChannelVC(v)
			if chs[i] != ch {
				t.Fatal("projection value mismatch")
			}
		}
	}
}
