package route

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/topology"
)

func TestUnitDemandMinimizesFlowCount(t *testing.T) {
	m := topology.NewMesh(3, 3)
	// One giant flow and two small ones with shared endpoints: under
	// bandwidth-weighted selection the small flows may share a link; with
	// unit demands the selector spreads by count.
	flows := []flowgraph.Flow{
		{ID: 0, Name: "big", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 1000},
		{ID: 1, Name: "s1", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 1},
		{ID: 2, Name: "s2", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 1},
	}
	dag := cdg.TurnBreaker{Rule: cdg.WestFirst}.Break(cdg.NewFull(m, 1))
	g := flowgraph.New(dag, flows, 4000)
	sel := UnitDemand(DijkstraSelector{})
	if sel.Name() != "BSOR-Dijkstra/unit-demand" {
		t.Errorf("Name = %q", sel.Name())
	}
	set, err := sel.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// Original demands must be preserved on the returned routes.
	if set.Routes[0].Flow.Demand != 1000 || set.Routes[1].Flow.Demand != 1 {
		t.Error("demands not restored")
	}
	// Max flows per link: source node (0,0) has 2 out channels for 3
	// flows, so the best achievable count is 2.
	counts := make([]int, m.NumChannels())
	maxCount := 0
	for _, r := range set.Routes {
		for _, ch := range r.Channels {
			counts[ch]++
			if counts[ch] > maxCount {
				maxCount = counts[ch]
			}
		}
	}
	if maxCount != 2 {
		t.Errorf("max flows per link = %d, want 2", maxCount)
	}
	if err := set.Conforms(g.CDG()); err != nil {
		t.Fatal(err)
	}
}

// selectCounter counts its calls and records the context each was given.
type selectCounter struct {
	calls *int
	ctx   *context.Context
}

func (selectCounter) Name() string { return "counter" }

func (c selectCounter) SelectContext(ctx context.Context, g *flowgraph.Graph) (*Set, error) {
	*c.calls++
	*c.ctx = ctx
	return DijkstraSelector{}.SelectContext(ctx, g)
}

// TestUnitDemandForwardsContext: the wrapper hands the caller's context
// to the inner selector, so a context that is already done stops the
// selection.
func TestUnitDemandForwardsContext(t *testing.T) {
	m := topology.NewMesh(3, 3)
	dag := cdg.TurnBreaker{Rule: cdg.WestFirst}.Break(cdg.NewFull(m, 1))
	g := flowgraph.New(dag, transposeFlows(m, 25), 100)
	calls := 0
	var got context.Context
	sel := UnitDemand(selectCounter{&calls, &got})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sel.SelectContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled SelectContext returned %v, want context.Canceled", err)
	}
	if calls != 1 || got != ctx {
		t.Errorf("inner selector ran %d times, last with ctx %v; want once with the caller's", calls, got)
	}
	if _, err := sel.SelectContext(context.Background(), g); err != nil || calls != 2 {
		t.Errorf("live SelectContext: %v after %d inner calls, want nil after 2", err, calls)
	}
}

func TestHopBudgetForcesMinimalRoute(t *testing.T) {
	m := topology.NewMesh(8, 8)
	flows := transposeFlows(m, 25)
	rule := cdg.NegativeFirstRule(topology.West, topology.North)
	dag := cdg.TurnBreaker{Rule: rule}.Break(cdg.NewFull(m, 2))
	g := flowgraph.New(dag, flows, 100)

	// Unconstrained BSOR takes detours on transpose (avg hops > 6).
	free, err := DijkstraSelector{}.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	// Force flow 0 minimal.
	budgets := map[int]int{0: m.MinimalHops(flows[0].Src, flows[0].Dst)}
	constrained, err := DijkstraSelector{HopBudgets: budgets}.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := constrained.Routes[0].Hops(), budgets[0]; got != want {
		t.Errorf("latency-critical flow routed in %d hops, want %d", got, want)
	}
	if err := constrained.Conforms(g.CDG()); err != nil {
		t.Fatal(err)
	}
	if err := constrained.Validate(2); err != nil {
		t.Fatal(err)
	}
	_ = free
}

func TestHopBudgetInfeasibleErrors(t *testing.T) {
	m := topology.NewMesh(3, 3)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(2, 2), Demand: 1},
	}
	dag := cdg.TurnBreaker{Rule: cdg.XYOrder}.Break(cdg.NewFull(m, 1))
	g := flowgraph.New(dag, flows, 100)
	// Budget below the minimal hop count (4) is impossible.
	_, err := DijkstraSelector{HopBudgets: map[int]int{0: 3}}.SelectContext(context.Background(), g)
	if err == nil {
		t.Fatal("infeasible budget accepted")
	}
}

func TestBoundedShortestPathMatchesUnbounded(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(3, 3), Demand: 1},
	}
	dag := cdg.TurnBreaker{Rule: cdg.WestFirst}.Break(cdg.NewFull(m, 1))
	g := flowgraph.New(dag, flows, 100)
	// With a generous budget the bounded search must find a path of the
	// same cost as the unbounded one.
	weight := func(v cdg.VertexID) float64 { return 1 }
	// One scratch serves both searches, as it does inside a selector.
	var scratch dijkstraScratch
	a, err := shortestPathGA(&scratch, g, 0, weight)
	if err != nil {
		t.Fatal(err)
	}
	b, err := shortestPathGABounded(&scratch, g, 0, 20, weight)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Errorf("unbounded %d hops, bounded %d hops under unit weights", len(a), len(b))
	}
}

// TestSearchAllocatesOnlyItsPath pins the searches' memory: on a warmed
// dijkstraScratch a search allocates the path it returns and nothing
// else, so the priority queue boxes no item on a push or a pop.
func TestSearchAllocatesOnlyItsPath(t *testing.T) {
	m := topology.NewMesh(8, 8)
	flows := []flowgraph.Flow{
		{ID: 0, Name: "f", Src: m.NodeAt(0, 0), Dst: m.NodeAt(7, 7), Demand: 1},
	}
	dag := cdg.TurnBreaker{Rule: cdg.WestFirst}.Break(cdg.NewFull(m, 2))
	g := flowgraph.New(dag, flows, 100)
	weight := func(v cdg.VertexID) float64 { return 1 + float64(v%7)/8 }
	var scratch dijkstraScratch
	for _, tc := range []struct {
		name   string
		search func() (flowgraph.Path, error)
	}{
		{"unbounded", func() (flowgraph.Path, error) { return shortestPathGA(&scratch, g, 0, weight) }},
		{"bounded", func() (flowgraph.Path, error) { return shortestPathGABounded(&scratch, g, 0, 16, weight) }},
	} {
		if _, err := tc.search(); err != nil { // grows the scratch
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = tc.search() }); allocs != 1 {
			t.Errorf("%s search: %v allocations, want 1 (the path)", tc.name, allocs)
		}
	}
}

func TestMILPHopSlackOverride(t *testing.T) {
	m := topology.NewMesh(4, 4)
	flows := transposeFlows(m, 25)
	dag := cdg.TurnBreaker{Rule: cdg.NegativeFirstRule(topology.West, topology.North)}.
		Break(cdg.NewFull(m, 1))
	g := flowgraph.New(dag, flows, 100)
	over := map[int]int{0: 0, 1: 0}
	sel := MILPSelector{HopSlack: 2, HopSlackOverride: over, MaxPathsPerFlow: 32}
	set, err := sel.SelectContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		want := m.MinimalHops(flows[i].Src, flows[i].Dst)
		if set.Routes[i].Hops() != want {
			t.Errorf("override flow %d routed in %d hops, want minimal %d",
				i, set.Routes[i].Hops(), want)
		}
	}
}
