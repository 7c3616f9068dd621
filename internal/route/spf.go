package route

import (
	"context"
	"fmt"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/topology"
)

// ShortestPath is the graph-generic deterministic oblivious baseline: the
// analog of dimension-order routing for networks with no grid structure.
// It builds the full channel dependence graph, breaks it with a
// graph-generic breaker (up*/down* rooted at node 0 by default), and
// assigns every flow its fewest-hop path conforming to the broken CDG —
// demand-oblivious, deterministic, and deadlock free by construction.
//
// Where XY picks "X then Y" as the one canonical deadlock-free path,
// ShortestPath picks "up then down" over the spanning order; on fabrics
// where DOR is undefined (rings, full meshes, Clos, faulted grids) it is
// the baseline the BSOR selectors are compared against.
type ShortestPath struct {
	// VCs is the virtual channel count of the CDG; zero means 2.
	VCs int
	// Breaker overrides the acyclic-CDG strategy; nil means
	// cdg.UpDownBreaker{Root: 0}.
	Breaker cdg.Breaker
}

// Name implements Algorithm.
func (ShortestPath) Name() string { return "SP" }

// Routes implements Algorithm.
func (s ShortestPath) Routes(t topology.Topology, flows []flowgraph.Flow) (*Set, error) {
	return s.RoutesContext(context.Background(), t, flows)
}

// RoutesContext implements ContextAlgorithm: ctx is polled between the
// stages (full CDG, break, flow network) and once per routed flow.
func (s ShortestPath) RoutesContext(ctx context.Context, t topology.Topology, flows []flowgraph.Flow) (*Set, error) {
	vcs := s.VCs
	if vcs == 0 {
		vcs = 2
	}
	breaker := s.Breaker
	if breaker == nil {
		breaker = cdg.UpDownBreaker{Root: 0}
	}
	full := cdg.NewFull(t, vcs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dag := breaker.Break(full)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !dag.IsAcyclic() {
		return nil, fmt.Errorf("route: SP breaker %s left the CDG cyclic on %T", breaker.Name(), t)
	}
	g := flowgraph.New(dag, flows, 1)
	routes := make([]Route, len(flows))
	unit := func(cdg.VertexID) float64 { return 1 }
	var scratch dijkstraScratch
	for i := range flows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := shortestPathGA(&scratch, g, i, unit)
		if err != nil {
			return nil, err
		}
		routes[i] = routeFromPath(g, i, p)
	}
	return &Set{Topo: t, Routes: routes}, nil
}
