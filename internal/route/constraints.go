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

// SelectContext implements Selector: ctx reaches the inner selector.
func (u unitDemand) SelectContext(ctx context.Context, g *flowgraph.Graph) (*Set, error) {
	flows := g.Flows()
	unit := make([]flowgraph.Flow, len(flows))
	copy(unit, flows)
	for i := range unit {
		unit[i].Demand = 1
	}
	ug := flowgraph.New(g.CDG(), unit, float64(len(flows)))
	set, err := u.inner.SelectContext(ctx, ug)
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
// count forces a minimal route (latency-critical flows, §7.2). The sink
// state keeps the hop count it is entered with, so there is one per count.
func shortestPathGABounded(s *dijkstraScratch, g *flowgraph.Graph, i int, maxHops int,
	vertexWeight func(v cdg.VertexID) float64) (flowgraph.Path, error) {

	dag := g.CDG()
	topo := dag.Topology()
	f := g.Flows()[i]
	snk := cdg.VertexID(dag.NumVertices())
	idx := func(st hopState) int { return int(st.v)*(maxHops+1) + st.hops }
	s.reset((int(snk) + 1) * (maxHops + 1))
	dist, prev := s.dist, s.prev
	pq := &s.boundedHeap
	pq.items = pq.items[:0]
	relax := func(next hopState, d float64, from int) {
		if nk := idx(next); d < dist[nk] {
			s.reach(nk, d, from)
			pq.push(next, d)
		}
	}
	if maxHops > 0 {
		for _, ch := range topo.OutChannels(f.Src) {
			for vc := 0; vc < dag.VCs(); vc++ {
				w := dag.Vertex(ch, vc)
				relax(hopState{w, 1}, vertexWeight(w), -1)
			}
		}
	}
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
		if it.st.hops < maxHops {
			for _, w := range dag.Out(it.st.v) {
				relax(hopState{w, it.st.hops + 1}, it.d+vertexWeight(w), k)
			}
		}
		if ch, _ := dag.ChannelVC(it.st.v); topo.Channel(ch).Dst == f.Dst {
			relax(hopState{snk, it.st.hops}, it.d, k)
		}
	}
	if goal < 0 {
		return nil, &NoPathError{Flow: f.Name,
			Src:    topo.NodeName(f.Src),
			Dst:    topo.NodeName(f.Dst),
			Budget: maxHops}
	}
	n := 0
	for k := int(prev[goal]); k >= 0; k = int(prev[k]) {
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
	v    cdg.VertexID
	hops int
}
