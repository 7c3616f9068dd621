// Package flowgraph derives route-selection flow networks from acyclic
// channel dependence graphs (thesis §3.4).
//
// The flow network G_A is the acyclic CDG D_A (vertices are (channel,
// virtual channel) pairs, edges are permitted consecutive traversals) plus
// one source terminal and one sink terminal per flow: the source terminal
// connects to every vertex whose channel leaves the flow's source node,
// and every vertex whose channel enters the flow's sink node connects to
// the sink terminal. A Graph stores none of that: it is a view of D_A, and
// a search for flow i starts on the vertices of the source node's
// out-channels and may stop at any vertex whose channel enters the sink
// node. Any such path conforms to D_A, so the routes selected on G_A are
// deadlock free by construction.
package flowgraph

import (
	"fmt"
	"math/bits"

	"repro/internal/cdg"
	"repro/internal/topology"
)

// Flow is one application data transfer K_i = (s_i, t_i, d_i): all packets
// from Src to Dst with an estimated bandwidth demand (in consistent units,
// MB/s throughout this repository).
type Flow struct {
	// ID indexes the flow within its flow set.
	ID int
	// Name is a diagnostic label such as "f7" or "transpose(2,5)".
	Name string
	Src  topology.NodeID
	Dst  topology.NodeID
	// Demand is the estimated bandwidth of the transfer.
	Demand float64
}

// Graph is the flow network G_A of a flow set over an acyclic CDG, held as
// a view: the CDG, the flows and the one channel capacity.
type Graph struct {
	dag      *cdg.Graph
	flows    []Flow
	capacity float64
}

// New builds G_A from an acyclic CDG and a flow set, with a uniform channel
// capacity. New panics if dag is cyclic (a cyclic CDG would let route
// selection produce deadlock-prone routes) or if a flow is degenerate.
func New(dag *cdg.Graph, flows []Flow, channelCapacity float64) *Graph {
	if !dag.IsAcyclic() {
		panic("flowgraph: CDG must be acyclic for deadlock-free route selection")
	}
	for _, f := range flows {
		if f.Src == f.Dst {
			panic(fmt.Sprintf("flowgraph: flow %s has equal source and sink", f.Name))
		}
		if f.Demand < 0 {
			panic(fmt.Sprintf("flowgraph: flow %s has negative demand", f.Name))
		}
	}
	return &Graph{dag: dag, flows: flows, capacity: channelCapacity}
}

// CDG returns the acyclic CDG the network was derived from.
func (g *Graph) CDG() *cdg.Graph { return g.dag }

// Flows returns the flow set. The slice must not be modified.
func (g *Graph) Flows() []Flow { return g.flows }

// Capacity returns the bandwidth capacity of every physical channel
// (virtual channels on one link share its bandwidth, so capacity and load
// are per channel, not per CDG vertex).
func (g *Graph) Capacity() float64 { return g.capacity }

// Path is a route through G_A expressed as the CDG vertices between the
// two terminals: Path[0]'s channel leaves the flow's source node and the
// last element's channel enters the sink node.
type Path []cdg.VertexID

// Channels projects the path onto physical channels.
func (g *Graph) Channels(p Path) []topology.ChannelID {
	chs := make([]topology.ChannelID, len(p))
	for i, v := range p {
		chs[i], _ = g.dag.ChannelVC(v)
	}
	return chs
}

// Validate checks that p is a real source-to-sink path for flow i: starts
// at the source node, ends at the sink node, every hop is a G_A edge.
func (g *Graph) Validate(i int, p Path) error {
	if len(p) == 0 {
		return fmt.Errorf("flowgraph: empty path for flow %s", g.flows[i].Name)
	}
	topo := g.dag.Topology()
	first, _ := g.dag.ChannelVC(p[0])
	if topo.Channel(first).Src != g.flows[i].Src {
		return fmt.Errorf("flowgraph: path for %s starts at %s, want %s",
			g.flows[i].Name, topo.NodeName(topo.Channel(first).Src),
			topo.NodeName(g.flows[i].Src))
	}
	last, _ := g.dag.ChannelVC(p[len(p)-1])
	if topo.Channel(last).Dst != g.flows[i].Dst {
		return fmt.Errorf("flowgraph: path for %s ends at %s, want %s",
			g.flows[i].Name, topo.NodeName(topo.Channel(last).Dst),
			topo.NodeName(g.flows[i].Dst))
	}
	for k := 0; k+1 < len(p); k++ {
		if !g.dag.HasEdge(p[k], p[k+1]) {
			return fmt.Errorf("flowgraph: path for %s uses dependence %d->%d absent from the acyclic CDG",
				g.flows[i].Name, p[k], p[k+1])
		}
	}
	return nil
}

// next is one channel successor of an enumeration step with the virtual
// channels reachable on it.
type next struct {
	ch   topology.ChannelID
	mask uint32
}

// enumScratch is the working memory of path enumeration. It belongs to
// the caller's frame — one per EnumerateAllContext worker — never to the
// shared Graph. Between calls every dist entry is -1 and every acc entry
// zero, so a call clears only what it touched.
type enumScratch struct {
	// dist[v] is the number of channel vertices a path must still cross
	// after CDG vertex v to reach the current flow's sink node (-1: never);
	// queue is the breadth-first search that filled it, and afterwards the
	// list of entries to clear.
	dist  []int32
	queue []cdg.VertexID
	// acc[ch] accumulates the VC mask of channel ch during one expansion;
	// touched lists the channels it made non-zero, in first-seen order.
	acc     []uint32
	touched []topology.ChannelID
	// nexts stacks the successor row of every open DFS frame; frame k's
	// row is nexts[frames[k].lo:frames[k+1].lo] (the top row runs to the
	// end) and frames[k].at is the next successor to visit.
	nexts  []next
	frames []frame
	// chs and masks are the current channel sequence and its per-hop VC
	// masks; frame k+1 belongs to chs[k].
	chs   []topology.ChannelID
	masks []uint32
	paths []Path
}

type frame struct{ lo, at int }

// sinkDist fills s.dist for flow i: a breadth-first search over the CDG's
// reverse rows, seeded from the vertices of the sink node's in-channels.
func (s *enumScratch) sinkDist(g *Graph, i int) {
	dag := g.dag
	if n := dag.NumVertices(); len(s.dist) < n {
		s.dist = make([]int32, n)
		for v := range s.dist {
			s.dist[v] = -1
		}
	}
	d := s.dist
	q := s.queue[:0]
	for _, ch := range dag.Topology().InChannels(g.flows[i].Dst) {
		for vc := 0; vc < dag.VCs(); vc++ {
			v := dag.Vertex(ch, vc)
			d[v] = 0
			q = append(q, v)
		}
	}
	for h := 0; h < len(q); h++ {
		v := q[h]
		for _, u := range dag.In(v) {
			if d[u] < 0 {
				d[u] = d[v] + 1
				q = append(q, u)
			}
		}
	}
	s.queue = q
}

// add ORs vc into channel ch's accumulated mask.
func (s *enumScratch) add(ch topology.ChannelID, vc int) {
	if s.acc[ch] == 0 {
		s.touched = append(s.touched, ch)
	}
	s.acc[ch] |= 1 << vc
}

// flush moves the accumulated masks onto nexts as one row in ascending
// channel order and clears them. The channels are distinct and rows
// usually arrive ascending, so an insertion sort is linear in practice.
func (s *enumScratch) flush() {
	lo := len(s.nexts)
	for _, ch := range s.touched {
		s.nexts = append(s.nexts, next{ch, s.acc[ch]})
		s.acc[ch] = 0
	}
	s.touched = s.touched[:0]
	row := s.nexts[lo:]
	for a := 1; a < len(row); a++ {
		x, b := row[a], a
		for ; b > 0 && row[b-1].ch > x.ch; b-- {
			row[b] = row[b-1]
		}
		row[b] = x
	}
}

// EnumeratePathsDedup lists source-to-sink paths for flow i whose hop
// count is at most maxHops, stopping after maxPaths paths (0 means no cap
// for either limit). G_A is a DAG, so enumeration terminates; branches
// that cannot reach the sink within the remaining hop budget are pruned
// via a per-flow reverse breadth-first distance, which makes enumeration
// output-bound instead of walk-bound. It yields exactly one candidate per
// distinct physical channel sequence, with maxPaths counting sequences.
// Paths that differ only in VC labels induce identical channel-load rows,
// so route selection wants one canonical candidate per sequence — and with
// several virtual channels a vertex-space walk would wade through
// exponentially many VC labelings between unique sequences. The search
// therefore runs directly in channel space, carrying the set of virtual
// channels reachable at each hop as a bitmask; a concrete VC labeling is
// reconstructed once a sequence completes. Channel successors are visited
// in ascending channel order, so the output is deterministic.
func (g *Graph) EnumeratePathsDedup(i int, maxHops, maxPaths int) []Path {
	var s enumScratch
	return g.enumerate(&s, i, maxHops, maxPaths)
}

// enumerate is EnumeratePathsDedup over the caller's scratch. On a scratch
// grown by an earlier call it allocates the returned paths and the slice
// holding them, nothing else.
func (g *Graph) enumerate(s *enumScratch, i int, maxHops, maxPaths int) []Path {
	dag := g.dag
	topo := dag.Topology()
	nVCs := dag.VCs()
	flow := g.flows[i]
	if nVCs > 32 {
		panic("flowgraph: EnumeratePathsDedup supports at most 32 virtual channels")
	}
	s.sinkDist(g, i)
	if n := topo.NumChannels(); len(s.acc) < n {
		s.acc = make([]uint32, n)
	}

	// liveMask masks off VCs of a channel that cannot reach the sink, and
	// minDist is the tightest completion distance over the remaining VCs.
	liveMask := func(ch topology.ChannelID, mask uint32) (uint32, int32) {
		out, best := uint32(0), int32(-1)
		for vc := 0; vc < nVCs; vc++ {
			if mask&(1<<vc) == 0 {
				continue
			}
			d := s.dist[dag.Vertex(ch, vc)]
			if d < 0 {
				continue
			}
			out |= 1 << vc
			if best < 0 || d < best {
				best = d
			}
		}
		return out, best
	}

	// expand pushes the channel successors of (ch, mask) as a new row.
	expand := func(ch topology.ChannelID, mask uint32) {
		for vc := 0; vc < nVCs; vc++ {
			if mask&(1<<vc) != 0 {
				for _, w := range dag.Out(dag.Vertex(ch, vc)) {
					s.add(dag.ChannelVC(w))
				}
			}
		}
		s.flush()
	}

	// reconstruct turns the completed channel sequence plus its per-hop VC
	// masks into one concrete CDG path (lowest feasible VC at each hop,
	// chosen backwards from the sink; every VC of the last channel enters
	// the sink node).
	reconstruct := func() Path {
		chs, masks := s.chs, s.masks
		n := len(chs)
		p := make(Path, n)
		p[n-1] = dag.Vertex(chs[n-1], bits.TrailingZeros32(masks[n-1]))
		for k := n - 2; k >= 0; k-- {
			for vc := 0; vc < nVCs; vc++ {
				if masks[k]&(1<<vc) == 0 {
					continue
				}
				if dag.HasEdge(dag.Vertex(chs[k], vc), p[k+1]) {
					p[k] = dag.Vertex(chs[k], vc)
					break
				}
			}
		}
		return p
	}

	// The root frame's row is the distinct first channels: those leaving
	// the source node. Each later frame is one channel of the current
	// sequence, entered in depth-first preorder.
	for _, ch := range topo.OutChannels(flow.Src) {
		for vc := 0; vc < nVCs; vc++ {
			s.add(ch, vc)
		}
	}
	s.flush()
	s.frames = append(s.frames, frame{})
	for len(s.frames) > 0 {
		top := len(s.frames) - 1
		f := &s.frames[top]
		if f.at == len(s.nexts) {
			s.nexts = s.nexts[:f.lo]
			s.frames = s.frames[:top]
			if top > 0 {
				s.chs = s.chs[:top-1]
				s.masks = s.masks[:top-1]
			}
			continue
		}
		nx := s.nexts[f.at]
		f.at++
		live, d := liveMask(nx.ch, nx.mask)
		if live == 0 {
			continue
		}
		if maxHops > 0 && len(s.chs)+1+int(d) > maxHops {
			continue
		}
		s.chs = append(s.chs, nx.ch)
		s.masks = append(s.masks, live)
		lo := len(s.nexts)
		expand(nx.ch, live)
		s.frames = append(s.frames, frame{lo, lo})
		if topo.Channel(nx.ch).Dst == flow.Dst {
			s.paths = append(s.paths, reconstruct())
			if maxPaths > 0 && len(s.paths) >= maxPaths {
				break
			}
		}
	}

	var paths []Path
	if len(s.paths) > 0 {
		paths = make([]Path, len(s.paths))
		copy(paths, s.paths)
	}
	for _, v := range s.queue {
		s.dist[v] = -1
	}
	clear(s.paths)
	s.paths, s.queue = s.paths[:0], s.queue[:0]
	s.nexts, s.frames = s.nexts[:0], s.frames[:0]
	s.chs, s.masks = s.chs[:0], s.masks[:0]
	return paths
}
