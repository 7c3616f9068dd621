package route

import (
	"container/heap"
	"context"
	"math"
	"sort"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/topology"
)

// FlowOrder selects the order in which the sequential Dijkstra selector
// routes flows. The thesis notes routes can be determined in different
// orders (§3.7); routing heavy flows first is the natural greedy choice.
type FlowOrder int

// Flow orderings.
const (
	// ByDemandDesc routes the largest demands first (default).
	ByDemandDesc FlowOrder = iota
	// AsGiven routes flows in their flow-set order.
	AsGiven
)

// DijkstraSelector is BSOR_Dijkstra (thesis §3.6): flows are routed one at
// a time along a minimum-weight path of the flow network, where the weight
// of a link is the reciprocal of its residual capacity after placing the
// flow, w(e) = 1 / (a(e) - d_i + M) — the CSPF-style metric of Walkowiak.
// Larger M biases the selection toward fewer hops, providing the latency
// control knob the thesis describes; links already assigned many flows on
// a virtual channel are lightly penalized to spread flows across VCs.
type DijkstraSelector struct {
	// M keeps weights positive and trades load balance against path
	// length; zero means the channel capacity of the flow network.
	M float64
	// VCBias is the extra weight per flow already occupying a (channel,
	// VC); zero means a small default derived from M.
	VCBias float64
	// Order is the flow routing order.
	Order FlowOrder
	// Perturb, when non-nil, is added to every edge weight evaluation; the
	// MILP selector uses it to diversify candidate paths. It receives the
	// channel vertex being priced.
	Perturb func(v cdg.VertexID) float64
	// HopBudgets caps the route length (in channels) of specific flows,
	// keyed by flow index. A budget equal to the flow's minimal hop count
	// forces a latency-critical minimal route (§7.2). Absent flows are
	// unbounded.
	HopBudgets map[int]int
}

// Name implements Selector.
func (d DijkstraSelector) Name() string { return "BSOR-Dijkstra" }

// Select implements Selector.
func (d DijkstraSelector) Select(g *flowgraph.Graph) (*Set, error) {
	return d.SelectContext(context.Background(), g)
}

// SelectContext implements ContextSelector: ctx is polled once per
// routed flow.
func (d DijkstraSelector) SelectContext(ctx context.Context, g *flowgraph.Graph) (*Set, error) {
	flows := g.Flows()
	residual := make([]float64, g.Topology().NumChannels())
	for ch := range residual {
		residual[ch] = g.Capacity(topology.ChannelID(ch))
	}
	vcUse := make([]int, g.CDG().NumVertices())

	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	if d.Order == ByDemandDesc {
		sort.SliceStable(order, func(a, b int) bool {
			return flows[order[a]].Demand > flows[order[b]].Demand
		})
	}

	routes := make([]Route, len(flows))
	var scratch dijkstraScratch
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := d.shortestPath(&scratch, g, i, residual, vcUse)
		if err != nil {
			return nil, err
		}
		routes[i] = routeFromPath(g, i, p)
		for _, v := range p {
			ch, _ := g.CDG().ChannelVC(v)
			residual[ch] -= flows[i].Demand
			vcUse[v]++
		}
	}
	return &Set{Topo: g.Topology(), Routes: routes}, nil
}

// shortestPath builds the residual-capacity weight function of §3.6 and
// delegates to the generic G_A Dijkstra.
func (d DijkstraSelector) shortestPath(s *dijkstraScratch, g *flowgraph.Graph, i int,
	residual []float64, vcUse []int) (flowgraph.Path, error) {

	m := d.M
	if m == 0 {
		// Comparable to the maximum link bandwidth, per the thesis.
		for ch := 0; ch < g.Topology().NumChannels(); ch++ {
			if c := g.Capacity(topology.ChannelID(ch)); c > m {
				m = c
			}
		}
		if m == 0 {
			m = 1
		}
	}
	vcBias := d.VCBias
	if vcBias == 0 {
		vcBias = 1 / (m * 1e4)
	}
	demand := g.Flows()[i].Demand

	// weight of entering a channel vertex v.
	vertexWeight := func(v flowgraph.VertexID) float64 {
		ch, _ := g.ChannelVC(v)
		denom := residual[ch] - demand + m
		if denom < 1e-9 {
			denom = 1e-9 // demands far beyond M; effectively infinite weight
		}
		w := 1/denom + vcBias*float64(vcUse[v])
		if d.Perturb != nil {
			w += d.Perturb(cdg.VertexID(v))
		}
		return w
	}
	if budget, ok := d.HopBudgets[i]; ok {
		return shortestPathGABounded(s, g, i, budget, vertexWeight)
	}
	return shortestPathGA(s, g, i, vertexWeight)
}

// dijkstraScratch is the per-state working memory of the G_A searches. One
// lives in the frame of each Select/Routes call and serves every flow that
// call routes: a search resets only the states the previous one touched,
// instead of allocating and clearing arrays the size of the network per
// flow. The zero value is ready to use; not safe for concurrent use.
type dijkstraScratch struct {
	dist    []float64
	prev    []int32
	done    []bool
	touched []int32
	// The priority queues' backing arrays, kept between searches.
	heap        vertexHeap
	boundedHeap boundedHeap
}

// reset readies the scratch for a search over n states: every state is at
// infinite distance with no predecessor.
func (s *dijkstraScratch) reset(n int) {
	for _, k := range s.touched {
		s.dist[k], s.prev[k], s.done[k] = math.Inf(1), -1, false
	}
	s.touched = s.touched[:0]
	for k := len(s.dist); k < n; k++ {
		s.dist = append(s.dist, math.Inf(1))
		s.prev = append(s.prev, -1)
		s.done = append(s.done, false)
	}
}

// reach records that state k is reached from state from at distance d.
func (s *dijkstraScratch) reach(k int, d float64, from int) {
	if math.IsInf(s.dist[k], 1) {
		s.touched = append(s.touched, int32(k))
	}
	s.dist[k], s.prev[k] = d, int32(from)
}

// shortestPathGA runs Dijkstra from flow i's source terminal to its sink
// terminal over G_A. The weight of an edge is the weight of the channel
// vertex it enters (edges into the sink terminal weigh zero), matching the
// thesis' convention that capacities live on links, which are vertices of
// G_A.
func shortestPathGA(s *dijkstraScratch, g *flowgraph.Graph, i int,
	vertexWeight func(v flowgraph.VertexID) float64) (flowgraph.Path, error) {

	s.reset(g.NumVertices())
	dist, prev, done := s.dist, s.prev, s.done
	src, snk := g.SrcTerminal(i), g.SinkTerminal(i)
	s.reach(int(src), 0, -1)
	pq := &s.heap
	pq.items = append(pq.items[:0], heapItem{v: src, d: 0})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		if done[it.v] {
			continue
		}
		if it.v == snk {
			break
		}
		done[it.v] = true
		for _, w := range g.Out(it.v) {
			if g.IsTerminal(w) && w != snk {
				continue // another flow's terminal
			}
			var edgeW float64
			if w != snk {
				edgeW = vertexWeight(w)
			}
			nd := it.d + edgeW
			if nd < dist[w] {
				s.reach(int(w), nd, int(it.v))
				heap.Push(pq, heapItem{v: w, d: nd})
			}
		}
	}
	if math.IsInf(dist[snk], 1) {
		f := g.Flows()[i]
		return nil, &NoPathError{Flow: f.Name,
			Src: g.Topology().NodeName(f.Src), Dst: g.Topology().NodeName(f.Dst)}
	}
	var p flowgraph.Path
	for v := flowgraph.VertexID(prev[snk]); v != src && v != -1; v = flowgraph.VertexID(prev[v]) {
		p = append(p, cdg.VertexID(v))
	}
	// Reverse into source-to-sink order.
	for a, b := 0, len(p)-1; a < b; a, b = a+1, b-1 {
		p[a], p[b] = p[b], p[a]
	}
	return p, nil
}

type heapItem struct {
	v flowgraph.VertexID
	d float64
}

type vertexHeap struct{ items []heapItem }

func (h *vertexHeap) Len() int           { return len(h.items) }
func (h *vertexHeap) Less(i, j int) bool { return h.items[i].d < h.items[j].d }
func (h *vertexHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *vertexHeap) Push(x interface{}) { h.items = append(h.items, x.(heapItem)) }
func (h *vertexHeap) Pop() (x interface{}) {
	old := h.items
	n := len(old)
	x = old[n-1]
	h.items = old[:n-1]
	return x
}
