package route

import (
	"context"

	"repro/internal/flowgraph"
	"repro/internal/topology"
)

// SelectWithContext runs sel under ctx: sel.SelectContext(ctx, g).
func SelectWithContext(ctx context.Context, sel Selector, g *flowgraph.Graph) (*Set, error) {
	return sel.SelectContext(ctx, g)
}

// ContextAlgorithm is implemented by routing algorithms that support
// cooperative cancellation (the BSOR framework, ShortestPath).
// RoutesWithContext dispatches to it; the grid baselines route a flow in
// microseconds and do not implement it.
type ContextAlgorithm interface {
	Algorithm
	// RoutesContext is Routes with cancellation: it returns ctx.Err() (no
	// route set) once ctx is done.
	RoutesContext(ctx context.Context, t topology.Topology, flows []flowgraph.Flow) (*Set, error)
}

// RoutesWithContext runs alg under ctx when it supports cancellation and
// falls back to the plain uncancellable Routes otherwise.
func RoutesWithContext(ctx context.Context, alg Algorithm, t topology.Topology, flows []flowgraph.Flow) (*Set, error) {
	if ca, ok := alg.(ContextAlgorithm); ok {
		return ca.RoutesContext(ctx, t, flows)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return alg.Routes(t, flows)
}
