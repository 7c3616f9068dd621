package route

import (
	"context"
	"math"
	"sort"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
)

// DijkstraSelector is BSOR_Dijkstra (thesis §3.6): flows are routed one at
// a time along a minimum-weight path of the flow network, where the weight
// of a link is the reciprocal of its residual capacity after placing the
// flow, w(e) = 1 / (a(e) - d_i + M) — the CSPF-style metric of Walkowiak.
// Larger M biases the selection toward fewer hops, providing the latency
// control knob the thesis describes; links already assigned many flows on
// a virtual channel are lightly penalized to spread flows across VCs.
// Flows are routed largest demand first (ties in flow-set order): the
// thesis notes routes can be determined in different orders (§3.7), and
// routing heavy flows first is the natural greedy choice.
type DijkstraSelector struct {
	// M keeps weights positive and trades load balance against path
	// length; zero means the channel capacity of the flow network. Each
	// flow already occupying a (channel, VC) adds 1/(M*1e4) to its weight.
	M float64
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
	dag := g.CDG()
	residual := make([]float64, dag.Topology().NumChannels())
	for ch := range residual {
		residual[ch] = g.Capacity()
	}
	vcUse := make([]int, dag.NumVertices())
	m := d.M
	if m == 0 {
		// Comparable to the maximum link bandwidth, per the thesis.
		if m = g.Capacity(); m <= 0 {
			m = 1
		}
	}

	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return flows[order[a]].Demand > flows[order[b]].Demand
	})

	routes := make([]Route, len(flows))
	var scratch dijkstraScratch
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := d.shortestPath(&scratch, g, i, m, residual, vcUse)
		if err != nil {
			return nil, err
		}
		routes[i] = routeFromPath(g, i, p)
		for _, v := range p {
			ch, _ := dag.ChannelVC(v)
			residual[ch] -= flows[i].Demand
			vcUse[v]++
		}
	}
	return &Set{Topo: dag.Topology(), Routes: routes}, nil
}

// shortestPath builds the residual-capacity weight function of §3.6 for
// the resolved M and delegates to the generic G_A Dijkstra.
func (d DijkstraSelector) shortestPath(s *dijkstraScratch, g *flowgraph.Graph, i int,
	m float64, residual []float64, vcUse []int) (flowgraph.Path, error) {

	dag := g.CDG()
	vcBias := 1 / (m * 1e4)
	demand := g.Flows()[i].Demand

	// weight of entering a channel vertex v.
	vertexWeight := func(v cdg.VertexID) float64 {
		ch, _ := dag.ChannelVC(v)
		denom := residual[ch] - demand + m
		if denom < 1e-9 {
			denom = 1e-9 // demands far beyond M; effectively infinite weight
		}
		w := 1/denom + vcBias*float64(vcUse[v])
		if d.Perturb != nil {
			w += d.Perturb(v)
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
	heap        minHeap[cdg.VertexID]
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

// shortestPathGA runs Dijkstra over flow i's view of G_A. The states are
// the CDG vertices plus one sink state numbered after them. The search
// starts on the vertices of the source node's out-channels, and the sink
// state is entered at no cost from any vertex whose channel enters the sink
// node. The weight of an edge is the weight of the channel vertex it
// enters, matching the thesis' convention that capacities live on links,
// which are vertices of G_A. Start vertices are pushed in OutChannels x VC
// order, and a vertex's sink edge is relaxed after its CDG successors:
// where G_A's terminals sat in its rows, so every tie breaks as it would on
// G_A with its terminals stored.
func shortestPathGA(s *dijkstraScratch, g *flowgraph.Graph, i int,
	vertexWeight func(v cdg.VertexID) float64) (flowgraph.Path, error) {

	dag := g.CDG()
	topo := dag.Topology()
	f := g.Flows()[i]
	snk := cdg.VertexID(dag.NumVertices())
	s.reset(int(snk) + 1)
	dist, prev, done := s.dist, s.prev, s.done
	pq := &s.heap
	pq.items = pq.items[:0]
	relax := func(w cdg.VertexID, d float64, from int) {
		if d < dist[w] {
			s.reach(int(w), d, from)
			pq.push(w, d)
		}
	}
	for _, ch := range topo.OutChannels(f.Src) {
		for vc := 0; vc < dag.VCs(); vc++ {
			w := dag.Vertex(ch, vc)
			relax(w, vertexWeight(w), -1)
		}
	}
	for len(pq.items) > 0 {
		it := pq.pop()
		if done[it.st] {
			continue
		}
		if it.st == snk {
			break
		}
		done[it.st] = true
		for _, w := range dag.Out(it.st) {
			relax(w, it.d+vertexWeight(w), int(it.st))
		}
		if ch, _ := dag.ChannelVC(it.st); topo.Channel(ch).Dst == f.Dst {
			relax(snk, it.d, int(it.st))
		}
	}
	if math.IsInf(dist[snk], 1) {
		return nil, &NoPathError{Flow: f.Name, Src: topo.NodeName(f.Src), Dst: topo.NodeName(f.Dst)}
	}
	// Count the channels, then fill the path back to front.
	n := 0
	for v := prev[snk]; v != -1; v = prev[v] {
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
