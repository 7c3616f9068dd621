package flowgraph

import (
	"fmt"
	"slices"
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

// TestTerminalWiring: flow 0's paths leave its source node on both of the
// node's out-channels and reach its sink node on both of the node's
// in-channels — the edges of G_A's two terminals — and the reference's
// stored terminals are wired to exactly those vertices.
func TestTerminalWiring(t *testing.T) {
	dag := mesh3x3DAG(t, 1)
	m := dag.Topology().(*topology.Mesh)
	flows := []Flow{
		{ID: 0, Name: "f0", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 10},
		{ID: 1, Name: "f1", Src: m.NodeAt(2, 0), Dst: m.NodeAt(0, 2), Demand: 5},
	}
	g := New(dag, flows, 1000)
	first, last := map[topology.ChannelID]bool{}, map[topology.ChannelID]bool{}
	for _, p := range g.EnumeratePathsDedup(0, 0, 0) {
		chs := g.Channels(p)
		first[chs[0]], last[chs[len(chs)-1]] = true, true
	}
	if len(first) != len(m.OutChannels(flows[0].Src)) || len(last) != len(m.InChannels(flows[0].Dst)) {
		t.Errorf("paths leave on %d and arrive on %d channels, want %d and %d",
			len(first), len(last), len(m.OutChannels(flows[0].Src)), len(m.InChannels(flows[0].Dst)))
	}

	ga := newTerminalNetwork(g)
	if len(ga.out) != dag.NumVertices()+4 {
		t.Fatalf("vertices = %d, want %d", len(ga.out), dag.NumVertices()+4)
	}
	for _, v := range ga.out[ga.src(0)] {
		ch, _ := dag.ChannelVC(v)
		if m.Channel(ch).Src != flows[0].Src {
			t.Errorf("source terminal wired to channel not leaving the source")
		}
	}
	if len(ga.out[ga.sink(0)]) != 0 {
		t.Error("sink terminal has successors")
	}
	inEdges := 0
	for v, row := range ga.out {
		if slices.Contains(row, ga.sink(0)) {
			ch, _ := dag.ChannelVC(cdg.VertexID(v))
			if m.Channel(ch).Dst != flows[0].Dst {
				t.Errorf("sink terminal wired from a channel not entering the sink")
			}
			inEdges++
		}
	}
	if inEdges != len(m.InChannels(flows[0].Dst)) {
		t.Errorf("sink wired from %d channels, want %d", inEdges, len(m.InChannels(flows[0].Dst)))
	}
}

// TestTerminalWiringMultiVC: the source terminal's row holds every VC of
// every out-channel, in OutChannels x VC order — the order the searches
// start in.
func TestTerminalWiringMultiVC(t *testing.T) {
	dag := mesh3x3DAG(t, 2)
	m := dag.Topology().(*topology.Mesh)
	flows := []Flow{{ID: 0, Name: "f0", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 1}}
	ga := newTerminalNetwork(New(dag, flows, 1000))
	var want []cdg.VertexID
	for _, ch := range m.OutChannels(flows[0].Src) {
		want = append(want, dag.Vertex(ch, 0), dag.Vertex(ch, 1))
	}
	if got := ga.out[ga.src(0)]; len(got) != 4 || !slices.Equal(got, want) {
		t.Errorf("src terminal row = %v, want %v (2 out-channels x 2 VCs)", got, want)
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
	if got := New(mesh3x3DAG(t, 1), nil, 1234).Capacity(); got != 1234 {
		t.Fatalf("capacity = %g, want 1234", got)
	}
}

// TestNewAllocatesOnlyTheView pins New's memory: the acyclicity check's
// two arrays and the Graph itself, however large the CDG and the flow set.
func TestNewAllocatesOnlyTheView(t *testing.T) {
	for _, tc := range []struct {
		w, vcs, flows int
	}{{3, 1, 2}, {8, 2, 16}, {16, 4, 64}} {
		m := topology.NewMesh(tc.w, tc.w)
		dag := cdg.TurnBreaker{Rule: cdg.WestFirst}.Break(cdg.NewFull(m, tc.vcs))
		flows := make([]Flow, tc.flows)
		for i := range flows {
			flows[i] = Flow{ID: i, Name: "f", Src: topology.NodeID(i % m.NumNodes()),
				Dst: topology.NodeID((i + 1) % m.NumNodes()), Demand: 1}
		}
		if allocs := testing.AllocsPerRun(10, func() { New(dag, flows, 1) }); allocs != 3 {
			t.Errorf("mesh%dx%d vcs %d, %d flows: New made %v allocations, want 3",
				tc.w, tc.w, tc.vcs, tc.flows, allocs)
		}
	}
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
