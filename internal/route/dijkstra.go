package route

import (
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
	heap        minHeap[flowgraph.VertexID]
	boundedHeap minHeap[hopState]
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
	pq.items = pq.items[:0]
	pq.push(src, 0)
	for len(pq.items) > 0 {
		it := pq.pop()
		if done[it.st] {
			continue
		}
		if it.st == snk {
			break
		}
		done[it.st] = true
		for _, w := range g.Out(it.st) {
			if g.IsTerminal(w) && w != snk {
				continue // another flow's terminal
			}
			var edgeW float64
			if w != snk {
				edgeW = vertexWeight(w)
			}
			nd := it.d + edgeW
			if nd < dist[w] {
				s.reach(int(w), nd, int(it.st))
				pq.push(w, nd)
			}
		}
	}
	if math.IsInf(dist[snk], 1) {
		f := g.Flows()[i]
		return nil, &NoPathError{Flow: f.Name,
			Src: g.Topology().NodeName(f.Src), Dst: g.Topology().NodeName(f.Dst)}
	}
	// Count the channels, then fill the path back to front.
	n := 0
	for v := prev[snk]; v != int32(src) && v != -1; v = prev[v] {
		n++
	}
	p := make(flowgraph.Path, n)
	for v := prev[snk]; n > 0; v = prev[v] {
		n--
		p[n] = cdg.VertexID(v)
	}
	return p, nil
}

// heapItem is a search state queued at distance d.
type heapItem[S any] struct {
	st S
	d  float64
}

// minHeap is the searches' priority queue: a binary heap on d whose
// sift-up and sift-down are container/heap's, so states pop in the same
// order, ties included, without boxing an item per Push and Pop.
type minHeap[S any] struct{ items []heapItem[S] }

func (h *minHeap[S]) push(st S, d float64) {
	h.items = append(h.items, heapItem[S]{st, d})
	for j := len(h.items) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h.items[j].d < h.items[i].d) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *minHeap[S]) pop() heapItem[S] {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.items[j2].d < h.items[j].d {
			j = j2 // right child
		}
		if !(h.items[j].d < h.items[i].d) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
	it := h.items[n]
	h.items = h.items[:n]
	return it
}
