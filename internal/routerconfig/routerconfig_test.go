package routerconfig

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func bsorSet(t *testing.T, m *topology.Mesh) *route.Set {
	t.Helper()
	flows, err := traffic.Transpose(m, 25)
	if err != nil {
		t.Fatal(err)
	}
	set, _, err := core.BestContext(context.Background(), m, flows, core.Config{VCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func nodesOfRoute(m *topology.Mesh, r route.Route) []topology.NodeID {
	nodes := []topology.NodeID{r.Flow.Src}
	for _, ch := range r.Channels {
		nodes = append(nodes, m.Channel(ch).Dst)
	}
	return nodes
}

func TestPortDirectionRoundTrip(t *testing.T) {
	for _, d := range []topology.Direction{topology.East, topology.West, topology.North, topology.South} {
		if DirectionOf(portOf(d)) != d {
			t.Errorf("round trip failed for %v", d)
		}
	}
}

func TestSourceRoutesReplayExactly(t *testing.T) {
	m := topology.NewMesh(8, 8)
	set := bsorSet(t, m)
	srs := CompileSourceRoutes(m, set)
	if len(srs) != len(set.Routes) {
		t.Fatalf("%d source routes for %d flows", len(srs), len(set.Routes))
	}
	for i, sr := range srs {
		nodes, err := sr.Walk(m)
		if err != nil {
			t.Fatal(err)
		}
		want := nodesOfRoute(m, set.Routes[i])
		if len(nodes) != len(want) {
			t.Fatalf("flow %d: walk %d nodes, want %d", i, len(nodes), len(want))
		}
		for k := range want {
			if nodes[k] != want[k] {
				t.Fatalf("flow %d diverges at hop %d", i, k)
			}
		}
		if len(sr.VCs) != len(sr.Hops) {
			t.Fatalf("flow %d: VC arity mismatch", i)
		}
	}
}

func TestSourceRouteBits(t *testing.T) {
	sr := SourceRoute{Hops: make([]Port, 6), VCs: make([]uint8, 6)}
	// 2 VCs -> 1 VC bit: (2+1)*6 = 18 bits.
	if got := sr.Bits(2); got != 18 {
		t.Errorf("Bits(2) = %d, want 18", got)
	}
	// 8 VCs -> 3 bits: 5*6 = 30.
	if got := sr.Bits(8); got != 30 {
		t.Errorf("Bits(8) = %d, want 30", got)
	}
	// 1 VC -> 0 bits: 12.
	if got := sr.Bits(1); got != 12 {
		t.Errorf("Bits(1) = %d, want 12", got)
	}
}

func TestSourceRouteWalkRejectsOffMesh(t *testing.T) {
	m := topology.NewMesh(2, 2)
	sr := SourceRoute{Start: m.NodeAt(0, 0), Hops: []Port{PortWest}, VCs: []uint8{0}}
	if _, err := sr.Walk(m); err == nil {
		t.Fatal("off-mesh hop accepted")
	}
}

func TestNodeTablesReplayExactly(t *testing.T) {
	m := topology.NewMesh(8, 8)
	set := bsorSet(t, m)
	nt, err := CompileNodeTables(m, set)
	if err != nil {
		t.Fatal(err)
	}
	for i := range set.Routes {
		nodes, err := nt.Walk(m, i)
		if err != nil {
			t.Fatal(err)
		}
		want := nodesOfRoute(m, set.Routes[i])
		if len(nodes) != len(want) {
			t.Fatalf("flow %d: %d nodes, want %d", i, len(nodes), len(want))
		}
		for k := range want {
			if nodes[k] != want[k] {
				t.Fatalf("flow %d diverges at hop %d", i, k)
			}
		}
	}
}

func TestNodeTablesWithinThesisBudget(t *testing.T) {
	m := topology.NewMesh(8, 8)
	set := bsorSet(t, m)
	nt, err := CompileNodeTables(m, set)
	if err != nil {
		t.Fatal(err)
	}
	for n, tbl := range nt.Tables {
		if len(tbl) > 256 {
			t.Errorf("node %d table has %d entries (> 8-bit index)", n, len(tbl))
		}
	}
}

func TestSizesReport(t *testing.T) {
	m := topology.NewMesh(8, 8)
	set := bsorSet(t, m)
	rep, err := Sizes(m, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SourceRouteBitsTotal <= 0 || rep.SourceRouteBitsMax <= 0 {
		t.Error("empty source-route report")
	}
	if rep.NodeTableEntriesMax <= 0 || rep.NodeTableBits <= 0 {
		t.Error("empty node-table report")
	}
	// Thesis claim: tables are small — a couple of KB per node at 256
	// entries. With 56 transpose flows across 64 nodes the total image
	// must sit well under 64 * 2KB.
	if rep.NodeTableBits > 64*2*1024*8 {
		t.Errorf("node tables implausibly large: %d bits", rep.NodeTableBits)
	}
	// Each flow's routing flits are at most (2+1) bits per hop and max
	// route length is bounded by the mesh diameter plus slack.
	if rep.SourceRouteBitsMax > 3*30 {
		t.Errorf("max source route %d bits is longer than any plausible route", rep.SourceRouteBitsMax)
	}
}

func TestNodeTableOverflow(t *testing.T) {
	// 300 identical flows through one link exceed an 8-bit table index at
	// the shared source node.
	m := topology.NewMesh(2, 1)
	var routes []route.Route
	ch := m.ChannelAt(m.NodeAt(0, 0), topology.East)
	for i := 0; i < 300; i++ {
		routes = append(routes, route.Route{
			Flow: flowgraph.Flow{ID: i, Name: "f", Src: m.NodeAt(0, 0),
				Dst: m.NodeAt(1, 0), Demand: 1},
			Channels: []topology.ChannelID{ch},
			VCs:      []int{0},
		})
	}
	set := &route.Set{Topo: m, Routes: routes}
	if _, err := CompileNodeTables(m, set); err == nil {
		t.Fatal("table overflow not detected")
	}
}
