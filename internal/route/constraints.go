package route

import (
	"context"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
)

// The thesis' limitations chapter (§7.2) sketches two variants this file
// implements: forcing latency-critical transfers onto minimal routes, and
// routing without bandwidth estimates by minimizing the maximum number of
// flows sharing a link.

// UnitDemand wraps a selector so route selection sees every flow with
// demand 1: the MCL objective degenerates to "minimize the maximum number
// of flows sharing a link", usable when bandwidth estimates are
// unavailable (§7.2). The returned route set carries the original
// demands.
func UnitDemand(sel Selector) Selector { return unitDemand{sel} }

type unitDemand struct{ inner Selector }

func (u unitDemand) Name() string { return u.inner.Name() + "/unit-demand" }

func (u unitDemand) Select(g *flowgraph.Graph) (*Set, error) {
	return u.SelectContext(context.Background(), g)
}

// SelectContext implements ContextSelector: ctx reaches the inner selector.
func (u unitDemand) SelectContext(ctx context.Context, g *flowgraph.Graph) (*Set, error) {
	flows := g.Flows()
	unit := make([]flowgraph.Flow, len(flows))
	copy(unit, flows)
	for i := range unit {
		unit[i].Demand = 1
	}
	ug := flowgraph.New(g.CDG(), unit, float64(len(flows)))
	set, err := SelectWithContext(ctx, u.inner, ug)
	if err != nil {
		return nil, err
	}
	for i := range set.Routes {
		set.Routes[i].Flow = flows[i]
	}
	return set, nil
}

// shortestPathGABounded is shortestPathGA with a hard hop budget: the
// search state is (vertex, hops used), so the cheapest path with at most
// maxHops channels is found. Setting maxHops to the flow's minimal hop
// count forces a minimal route (latency-critical flows, §7.2).
func shortestPathGABounded(s *dijkstraScratch, g *flowgraph.Graph, i int, maxHops int,
	vertexWeight func(v flowgraph.VertexID) float64) (flowgraph.Path, error) {

	idx := func(st hopState) int { return int(st.v)*(maxHops+1) + st.hops }
	s.reset(g.NumVertices() * (maxHops + 1))
	dist, prev := s.dist, s.prev
	src, snk := g.SrcTerminal(i), g.SinkTerminal(i)
	start := hopState{src, 0}
	s.reach(idx(start), 0, -1)
	pq := &s.boundedHeap
	pq.items = pq.items[:0]
	pq.push(start, 0)
	var goal = -1
	for len(pq.items) > 0 {
		it := pq.pop()
		k := idx(it.st)
		if it.d > dist[k] {
			continue
		}
		if it.st.v == snk {
			goal = k
			break
		}
		for _, w := range g.Out(it.st.v) {
			if g.IsTerminal(w) && w != snk {
				continue
			}
			next := it.st
			var edgeW float64
			if w != snk {
				next = hopState{w, it.st.hops + 1}
				if next.hops > maxHops {
					continue
				}
				edgeW = vertexWeight(w)
			} else {
				next = hopState{w, it.st.hops}
			}
			nk := idx(next)
			if nd := it.d + edgeW; nd < dist[nk] {
				s.reach(nk, nd, k)
				pq.push(next, nd)
			}
		}
	}
	if goal < 0 {
		f := g.Flows()[i]
		return nil, &NoPathError{Flow: f.Name,
			Src:    g.Topology().NodeName(f.Src),
			Dst:    g.Topology().NodeName(f.Dst),
			Budget: maxHops}
	}
	n := 0
	for k := int(prev[goal]); k >= 0 && flowgraph.VertexID(k/(maxHops+1)) != src; k = int(prev[k]) {
		n++
	}
	p := make(flowgraph.Path, n)
	for k := int(prev[goal]); n > 0; k = int(prev[k]) {
		n--
		p[n] = cdg.VertexID(k / (maxHops + 1))
	}
	return p, nil
}

// hopState is a (vertex, hops-used) search state of the bounded Dijkstra.
type hopState struct {
	v    flowgraph.VertexID
	hops int
}
