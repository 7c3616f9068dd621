package route

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/lp"
	"repro/internal/topology"
)

// transposeFlows builds the transpose synthetic pattern inline (the traffic
// package has the canonical generator; this keeps route tests independent).
func transposeFlows(m *topology.Mesh, demand float64) []flowgraph.Flow {
	var flows []flowgraph.Flow
	for y := 0; y < m.Height(); y++ {
		for x := 0; x < m.Width(); x++ {
			if x == y {
				continue
			}
			flows = append(flows, flowgraph.Flow{
				ID: len(flows), Name: "t", Src: m.NodeAt(x, y), Dst: m.NodeAt(y, x),
				Demand: demand,
			})
		}
	}
	return flows
}

func TestSetLoadsAndMCL(t *testing.T) {
	m := topology.NewMesh(3, 3)
	f := flowgraph.Flow{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 0), Demand: 10}
	g := flowgraph.Flow{ID: 1, Name: "g", Src: m.NodeAt(1, 0), Dst: m.NodeAt(2, 0), Demand: 5}
	set, err := XY{}.Routes(m, []flowgraph.Flow{f, g})
	if err != nil {
		t.Fatal(err)
	}
	mcl, ch := set.MCL()
	if mcl != 15 {
		t.Errorf("MCL = %g, want 15 (shared east link)", mcl)
	}
	shared := m.ChannelFromTo(m.NodeAt(1, 0), m.NodeAt(2, 0))
	if ch != shared {
		t.Errorf("bottleneck channel = %d, want %d", ch, shared)
	}
	if got := set.AvgHops(); got != 1.5 {
		t.Errorf("AvgHops = %g, want 1.5", got)
	}
}

func TestEmptySet(t *testing.T) {
	m := topology.NewMesh(2, 2)
	set := &Set{Topo: m}
	if mcl, ch := set.MCL(); mcl != 0 || ch != topology.InvalidChannel {
		t.Error("empty set MCL should be 0/invalid")
	}
	if set.AvgHops() != 0 {
		t.Error("empty set AvgHops should be 0")
	}
}

func TestXYPathShape(t *testing.T) {
	m := topology.NewMesh(4, 4)
	set, err := XY{}.Routes(m, []flowgraph.Flow{
		{ID: 0, Name: "f", Src: m.NodeAt(0, 3), Dst: m.NodeAt(3, 0), Demand: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := set.Routes[0]
	if r.Hops() != 6 {
		t.Fatalf("hops = %d, want 6 (minimal)", r.Hops())
	}
	// XY: all X travel first.
	seenY := false
	for _, ch := range r.Channels {
		dir := m.Channel(ch).Dir
		if dir == topology.North || dir == topology.South {
			seenY = true
		} else if seenY {
			t.Fatal("XY route does X travel after Y travel")
		}
	}
	if err := set.Validate(1); err != nil {
		t.Fatal(err)
	}
	if err := set.DeadlockFree(1); err != nil {
		t.Fatal(err)
	}
}

func TestYXPathShape(t *testing.T) {
	m := topology.NewMesh(4, 4)
	set, err := YX{}.Routes(m, []flowgraph.Flow{
		{ID: 0, Name: "f", Src: m.NodeAt(0, 3), Dst: m.NodeAt(3, 0), Demand: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	seenX := false
	for _, ch := range set.Routes[0].Channels {
		dir := m.Channel(ch).Dir
		if dir == topology.East || dir == topology.West {
			seenX = true
		} else if seenX {
			t.Fatal("YX route does Y travel after X travel")
		}
	}
}

// The thesis' Table 6.3 reports XY/YX MCL of 175 on transpose with 8x8 and
// per-flow demand 25 MB/s (175 = 7 flows x 25).
func TestXYTransposeMCLMatchesPaper(t *testing.T) {
	m := topology.NewMesh(8, 8)
	flows := transposeFlows(m, 25)
	for _, alg := range []Algorithm{XY{}, YX{}} {
		set, err := alg.Routes(m, flows)
		if err != nil {
			t.Fatal(err)
		}
		mcl, _ := set.MCL()
		if mcl != 175 {
			t.Errorf("%s transpose MCL = %g, want 175", alg.Name(), mcl)
		}
	}
}

func TestROMMMinimalAndDeadlockFree(t *testing.T) {
	m := topology.NewMesh(8, 8)
	flows := transposeFlows(m, 25)
	set, err := ROMM{Seed: 3}.Routes(m, flows)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(2); err != nil {
		t.Fatal(err)
	}
	if err := set.DeadlockFree(2); err != nil {
		t.Fatal(err)
	}
	for _, r := range set.Routes {
		if r.Hops() != m.MinimalHops(r.Flow.Src, r.Flow.Dst) {
			t.Fatalf("ROMM route for %s is non-minimal: %d hops", r.Flow.Name, r.Hops())
		}
	}
}

func TestValiantValidAndDeadlockFree(t *testing.T) {
	m := topology.NewMesh(8, 8)
	flows := transposeFlows(m, 25)
	set, err := Valiant{Seed: 11}.Routes(m, flows)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(2); err != nil {
		t.Fatal(err)
	}
	if err := set.DeadlockFree(2); err != nil {
		t.Fatal(err)
	}
	// Valiant should be non-minimal on average.
	nonMinimal := 0
	for _, r := range set.Routes {
		if r.Hops() > m.MinimalHops(r.Flow.Src, r.Flow.Dst) {
			nonMinimal++
		}
	}
	if nonMinimal == 0 {
		t.Error("Valiant produced only minimal routes; intermediate selection suspect")
	}
}

func TestO1TURNValidAndBalanced(t *testing.T) {
	m := topology.NewMesh(8, 8)
	flows := transposeFlows(m, 25)
	set, err := O1TURN{Seed: 5}.Routes(m, flows)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(2); err != nil {
		t.Fatal(err)
	}
	if err := set.DeadlockFree(2); err != nil {
		t.Fatal(err)
	}
	vc0, vc1 := 0, 0
	for _, r := range set.Routes {
		if r.VCs[0] == 0 {
			vc0++
		} else {
			vc1++
		}
	}
	if vc0 == 0 || vc1 == 0 {
		t.Errorf("O1TURN used only one order: xy=%d yx=%d", vc0, vc1)
	}
}

func TestValidateCatchesBadRoutes(t *testing.T) {
	m := topology.NewMesh(3, 3)
	f := flowgraph.Flow{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 0), Demand: 1}
	e0 := m.ChannelAt(m.NodeAt(0, 0), topology.East)
	e1 := m.ChannelAt(m.NodeAt(1, 0), topology.East)
	n0 := m.ChannelAt(m.NodeAt(0, 0), topology.North)
	// Once around the cell east of (0,0), back across e0, then on to the
	// sink: contiguous, no 180-degree turn, but e0 is crossed twice.
	hop := func(x0, y0, x1, y1 int) topology.ChannelID {
		return m.ChannelFromTo(m.NodeAt(x0, y0), m.NodeAt(x1, y1))
	}
	loop := []topology.ChannelID{e0, hop(1, 0, 1, 1), hop(1, 1, 0, 1), hop(0, 1, 0, 0), e0, e1}
	cases := []struct {
		name string
		r    Route
		want string
	}{
		{"empty", Route{Flow: f}, "empty route"},
		{"vc-arity", Route{Flow: f, Channels: []topology.ChannelID{e0, e1}, VCs: []int{0}}, "1 VCs for 2 channels"},
		{"wrong-start", Route{Flow: f, Channels: []topology.ChannelID{e1}, VCs: []int{0}}, "starts at"},
		{"wrong-end", Route{Flow: f, Channels: []topology.ChannelID{e0}, VCs: []int{0}}, "ends at"},
		{"gap", Route{Flow: f, Channels: []topology.ChannelID{n0, e1}, VCs: []int{0, 0}}, "not contiguous"},
		{"bad-vc", Route{Flow: f, Channels: []topology.ChannelID{e0, e1}, VCs: []int{0, 2}}, "VC 2 outside"},
		{"channel-9999", Route{Flow: f, Channels: []topology.ChannelID{e0, 9999}, VCs: []int{0, 0}}, "channel 9999 outside"},
		{"channel-minus-1", Route{Flow: f, Channels: []topology.ChannelID{-1, e1}, VCs: []int{0, 0}}, "channel -1 outside"},
		{"revisit", Route{Flow: f, Channels: loop, VCs: make([]int, len(loop))}, "twice"},
	}
	for _, c := range cases {
		set := &Set{Topo: m, Routes: []Route{c.r}}
		if err := set.Validate(2); err == nil {
			t.Errorf("case %s: invalid route accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %s: error %q does not say %q", c.name, err, c.want)
		}
	}
	ok := &Set{Topo: m, Routes: []Route{{Flow: f,
		Channels: []topology.ChannelID{e0, e1}, VCs: []int{0, 1}}}}
	if err := ok.Validate(2); err != nil {
		t.Errorf("valid route rejected: %v", err)
	}
}

// TestValidateAllocatesOnce pins Validate at one allocation, its
// channel stamp slice, however many routes the set holds.
func TestValidateAllocatesOnce(t *testing.T) {
	m := topology.NewMesh(16, 16)
	set, err := XY{}.Routes(m, transposeFlows(m, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(1); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = set.Validate(1) }); allocs > 1 {
		t.Fatalf("Validate over %d routes allocates %v times, want <= 1", len(set.Routes), allocs)
	}
}

func TestValidateCatches180Turn(t *testing.T) {
	m := topology.NewMesh(3, 3)
	f := flowgraph.Flow{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(0, 0), Demand: 1}
	e := m.ChannelAt(m.NodeAt(0, 0), topology.East)
	w := m.ChannelAt(m.NodeAt(1, 0), topology.West)
	set := &Set{Topo: m, Routes: []Route{{Flow: f,
		Channels: []topology.ChannelID{e, w}, VCs: []int{0, 0}}}}
	if err := set.Validate(1); err == nil {
		t.Error("180-degree turn accepted")
	}
}

func TestDeadlockFreeDetectsCycle(t *testing.T) {
	m := topology.NewMesh(2, 2)
	// Four routes that chase each other around the 2x2 ring clockwise:
	// the classic deadlock cycle.
	mk := func(sx, sy, mx, my, dx, dy int) Route {
		c1 := m.ChannelFromTo(m.NodeAt(sx, sy), m.NodeAt(mx, my))
		c2 := m.ChannelFromTo(m.NodeAt(mx, my), m.NodeAt(dx, dy))
		return Route{
			Flow:     flowgraph.Flow{Src: m.NodeAt(sx, sy), Dst: m.NodeAt(dx, dy), Demand: 1},
			Channels: []topology.ChannelID{c1, c2},
			VCs:      []int{0, 0},
		}
	}
	set := &Set{Topo: m, Routes: []Route{
		mk(0, 0, 1, 0, 1, 1),
		mk(1, 0, 1, 1, 0, 1),
		mk(1, 1, 0, 1, 0, 0),
		mk(0, 1, 0, 0, 1, 0),
	}}
	if err := set.DeadlockFree(1); err == nil {
		t.Fatal("cyclic dependence set accepted as deadlock-free")
	}
	// The same pattern with ascending VCs on the second hop breaks the
	// cycle... it does not (still a cycle across VC levels is impossible:
	// each route ascends, so the 4-cycle cannot close). Verify.
	for i := range set.Routes {
		set.Routes[i].VCs = []int{0, 1}
	}
	if err := set.DeadlockFree(2); err != nil {
		t.Fatalf("VC-ascending set rejected: %v", err)
	}
}

func dijkstraGraph(t *testing.T, m *topology.Mesh, rule cdg.TurnRule, vcs int,
	flows []flowgraph.Flow, cap float64) *flowgraph.Graph {
	t.Helper()
	dag := cdg.TurnBreaker{Rule: rule}.Break(cdg.NewFull(m, vcs))
	return flowgraph.New(dag, flows, cap)
}

func TestDijkstraSpreadsLoad(t *testing.T) {
	m := topology.NewMesh(3, 3)
	// Two flows with identical endpoints: XY would stack them on one path;
	// the bandwidth-sensitive selector must spread them.
	flows := []flowgraph.Flow{
		{ID: 0, Name: "a", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 10},
		{ID: 1, Name: "b", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 10},
	}
	g := dijkstraGraph(t, m, cdg.WestFirst, 1, flows, 1000)
	set, err := DijkstraSelector{}.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	mcl, _ := set.MCL()
	// Endpoint links (leaving (0,0) / entering (2,2)) force 20 only if the
	// two routes share them; with 2 out-channels and 2 in-channels they
	// need not. Spread routes give MCL 10.
	if mcl != 10 {
		t.Errorf("MCL = %g, want 10 (spread paths)", mcl)
	}
	if err := set.Validate(1); err != nil {
		t.Fatal(err)
	}
	if err := set.DeadlockFree(1); err != nil {
		t.Fatal(err)
	}
	if err := set.Conforms(g.CDG()); err != nil {
		t.Fatal(err)
	}
}

// The thesis' Table 6.2 reports BSOR-Dijkstra transpose MCL of 75 under its
// negative-first CDG; with our axis convention that is the (W,N) rotation
// of negative-first (see DESIGN.md). The (W,S) rotation provably forces
// MCL 175 on transpose (all column-0 flows share the last south hop).
func TestDijkstraTransposeBeatsDOR(t *testing.T) {
	m := topology.NewMesh(8, 8)
	flows := transposeFlows(m, 25)
	g := dijkstraGraph(t, m,
		cdg.NegativeFirstRule(topology.West, topology.North), 2, flows, 100)
	set, err := DijkstraSelector{}.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	mcl, _ := set.MCL()
	if mcl != 75 {
		t.Errorf("BSOR-Dijkstra transpose MCL = %g, want the paper's 75", mcl)
	}
	if err := set.Conforms(g.CDG()); err != nil {
		t.Fatal(err)
	}
	if err := set.DeadlockFree(2); err != nil {
		t.Fatal(err)
	}
}

// A route set computed for a larger fabric names (channel, VC) vertices the
// CDG of a smaller one does not have; Conforms must report the missing
// dependence, not index past the graph.
func TestConformsRejectsRoutesOfLargerFabric(t *testing.T) {
	big := topology.NewMesh(8, 8)
	g := dijkstraGraph(t, big, cdg.WestFirst, 2, transposeFlows(big, 25), 100)
	set, err := DijkstraSelector{}.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	small := cdg.TurnBreaker{Rule: cdg.WestFirst}.Break(cdg.NewFull(topology.NewMesh(3, 3), 2))
	// Route by route, so the far corner of the big mesh is reached too: a
	// route with a hop outside the small CDG cannot conform to it.
	outside := 0
	for _, r := range set.Routes {
		if len(r.Channels) < 2 || int(r.Channels[0]) < small.Topology().NumChannels() {
			continue
		}
		outside++
		err := (&Set{Topo: big, Routes: []Route{r}}).Conforms(small)
		if err == nil || !strings.Contains(err.Error(), "absent from the CDG") {
			t.Fatalf("%s: Conforms against a smaller fabric's CDG = %v, want a dependence-absent error",
				r.Flow.Name, err)
		}
	}
	if outside == 0 {
		t.Fatal("no route left the small fabric's vertex range; the test checks nothing")
	}
}

func TestDijkstraUnreachableFlowErrors(t *testing.T) {
	m := topology.NewMesh(3, 3)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "f", Src: m.NodeAt(2, 2), Dst: m.NodeAt(0, 0), Demand: 1},
	}
	// An empty CDG (all dependences removed) disconnects multi-hop flows.
	dag := cdg.NewFull(m, 1).Filter(func(u, v cdg.VertexID) bool { return false })
	g := flowgraph.New(dag, flows, 1000)
	if _, err := (DijkstraSelector{}).SelectContext(context.Background(), g); err == nil {
		t.Fatal("unreachable flow did not error")
	}
}

func TestMILPSelectorOptimalSmall(t *testing.T) {
	m := topology.NewMesh(3, 3)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "a", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 10},
		{ID: 1, Name: "b", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 10},
		{ID: 2, Name: "c", Src: m.NodeAt(0, 1), Dst: m.NodeAt(2, 1), Demand: 10},
	}
	g := dijkstraGraph(t, m, cdg.WestFirst, 1, flows, 1000)
	set, err := MILPSelector{HopSlack: 2}.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	mcl, _ := set.MCL()
	if mcl != 10 {
		t.Errorf("MILP MCL = %g, want 10", mcl)
	}
	if err := set.Conforms(g.CDG()); err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(1); err != nil {
		t.Fatal(err)
	}
}

// Path-based MILP must match the thesis' edge-based formulation on small
// instances. The edge formulation keeps a capacity row for every channel;
// the path master drops every row only one flow's candidates can touch and
// bounds U below by the largest demand instead; the "private-first-hop"
// case has a flow whose first channel is such a row and whose demand is the
// largest (under west-first it alone sets the optimum, 9).
func TestMILPPathMatchesEdgeFormulation(t *testing.T) {
	m := topology.NewMesh(3, 3)
	cases := []struct {
		name  string
		flows []flowgraph.Flow
		// private is the flow whose first channel must be untouched by every
		// other flow's candidates, or -1 for no such premise.
		private int
	}{
		{"shared-source", []flowgraph.Flow{
			{ID: 0, Name: "a", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 1), Demand: 7},
			{ID: 1, Name: "b", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 1), Demand: 5},
			{ID: 2, Name: "c", Src: m.NodeAt(2, 0), Dst: m.NodeAt(0, 2), Demand: 3},
		}, -1},
		{"private-first-hop", []flowgraph.Flow{
			{ID: 0, Name: "a", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 1), Demand: 7},
			{ID: 1, Name: "b", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 1), Demand: 5},
			{ID: 2, Name: "d", Src: m.NodeAt(0, 2), Dst: m.NodeAt(0, 1), Demand: 9},
		}, 2},
	}
	for _, tc := range cases {
		for _, rule := range []cdg.TurnRule{cdg.WestFirst, cdg.NorthLast} {
			name := tc.name + "/" + rule.Name()
			g := dijkstraGraph(t, m, rule, 1, tc.flows, 1000)
			if tc.private >= 0 {
				requirePrivateFirstChannel(t, name, g, 2, tc.private)
			}
			pathSet, err := MILPSelector{HopSlack: 2}.SelectContext(context.Background(), g)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			edgeRes, err := EdgeMILP(g, 2, MinMCL, lpOpts())
			if err != nil {
				t.Fatalf("%s edge MILP: %v", name, err)
			}
			pm, _ := pathSet.MCL()
			em, _ := edgeRes.Set.MCL()
			if math.Abs(pm-em) > 1e-6 {
				t.Errorf("%s: path MILP MCL %g != edge MILP MCL %g", name, pm, em)
			}
			if math.Abs(edgeRes.Objective-em) > 1e-6 {
				t.Errorf("%s: edge objective %g != realized MCL %g", name, edgeRes.Objective, em)
			}
			if err := edgeRes.Set.Conforms(g.CDG()); err != nil {
				t.Errorf("%s: edge MILP routes do not conform: %v", name, err)
			}
		}
	}
}

// requirePrivateFirstChannel fails unless every candidate of flow i within
// the hop budget starts on a channel no other flow's candidates cross —
// the rows the restricted master leaves out.
func requirePrivateFirstChannel(t *testing.T, name string, g *flowgraph.Graph, slack, i int) {
	t.Helper()
	budgets, err := hopBudgets(g, slack, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	candidates, _ := g.EnumerateAllContext(context.Background(), budgets, 0, 1)
	others := make(map[topology.ChannelID]bool)
	for f, paths := range candidates {
		if f == i {
			continue
		}
		for _, p := range paths {
			for _, ch := range g.Channels(p) {
				others[ch] = true
			}
		}
	}
	for _, p := range candidates[i] {
		if first := g.Channels(p)[0]; others[first] {
			t.Fatalf("%s: flow %d's first channel %d is shared; the case no longer exercises a dropped row", name, i, first)
		}
	}
}

func TestEdgeMILPMaxThroughput(t *testing.T) {
	// 2x1 line, one link each way with capacity 10; two flows of demand 8
	// from the same source: only 10 of 16 can be delivered.
	m := topology.NewMesh(2, 1)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "a", Src: m.NodeAt(0, 0), Dst: m.NodeAt(1, 0), Demand: 8},
		{ID: 1, Name: "b", Src: m.NodeAt(0, 0), Dst: m.NodeAt(1, 0), Demand: 8},
	}
	dag := cdg.TurnBreaker{Rule: cdg.XYOrder}.Break(cdg.NewFull(m, 1))
	g := flowgraph.New(dag, flows, 10)
	res, err := EdgeMILP(g, 0, MaxThroughput, lpOpts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-10) > 1e-6 {
		t.Errorf("max throughput = %g, want 10", res.Objective)
	}
}

func TestEdgeMILPMaxMinFraction(t *testing.T) {
	m := topology.NewMesh(2, 1)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "a", Src: m.NodeAt(0, 0), Dst: m.NodeAt(1, 0), Demand: 8},
		{ID: 1, Name: "b", Src: m.NodeAt(0, 0), Dst: m.NodeAt(1, 0), Demand: 2},
	}
	dag := cdg.TurnBreaker{Rule: cdg.XYOrder}.Break(cdg.NewFull(m, 1))
	g := flowgraph.New(dag, flows, 5)
	res, err := EdgeMILP(g, 0, MaxMinFraction, lpOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Both flows share a 5-capacity link: T = 5/(8+2) = 0.5.
	if math.Abs(res.Objective-0.5) > 1e-6 {
		t.Errorf("max-min fraction = %g, want 0.5", res.Objective)
	}
}

func TestMILPMinimalOnlyRespectsHops(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows := transposeFlows(m, 25)
	g := dijkstraGraph(t, m, cdg.WestFirst, 1, flows, 1000)
	set, err := MILPSelector{HopSlack: 0, MaxPathsPerFlow: 64}.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range set.Routes {
		if r.Hops() != m.MinimalHops(r.Flow.Src, r.Flow.Dst) {
			t.Fatalf("hop slack 0 produced non-minimal route (%d hops)", r.Hops())
		}
	}
}

func TestMILPMultiVCStaticAllocation(t *testing.T) {
	m := topology.NewMesh(3, 3)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "a", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 10},
		{ID: 1, Name: "b", Src: m.NodeAt(2, 2), Dst: m.NodeAt(0, 0), Demand: 10},
	}
	dag := cdg.VCEscalationBreaker{Rule: cdg.XYOrder}.Break(cdg.NewFull(m, 2))
	g := flowgraph.New(dag, flows, 1000)
	set, err := MILPSelector{HopSlack: 2, MaxPathsPerFlow: 64}.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(2); err != nil {
		t.Fatal(err)
	}
	if err := set.Conforms(g.CDG()); err != nil {
		t.Fatal(err)
	}
	if err := set.DeadlockFree(2); err != nil {
		t.Fatal(err)
	}
}

func lpOpts() lp.MILPOptions { return lp.MILPOptions{} }
