// Package cdg builds and manipulates channel dependence graphs (CDGs).
//
// A CDG D(V', E') is derived from a network topology: each vertex is a
// (channel, virtual channel) pair, and there is an edge from v1 to v2 if a
// packet can traverse the channel of v1 and then immediately the channel of
// v2. 180-degree turns are disallowed and never appear. By the Dally–Seitz
// theorem (thesis Lemma 1) a routing algorithm is deadlock free iff the set
// of routes it produces conforms to an acyclic CDG, so the BSOR framework
// restricts route selection to an acyclic subgraph of the full CDG produced
// by one of the Breaker strategies in this package.
package cdg

import (
	"fmt"

	"repro/internal/topology"
)

// VertexID identifies a (channel, virtual channel) vertex of a CDG.
// Vertices are numbered densely: vertex = channel*VCs + vc.
type VertexID int32

// InvalidVertex is returned by lookups with no answer.
const InvalidVertex VertexID = -1

// Graph is a channel dependence graph over a topology with a fixed number
// of virtual channels per physical channel.
type Graph struct {
	topo topology.Topology
	vcs  int

	out [][]VertexID
	in  [][]VertexID
	// edgeSet allows O(1) HasEdge; key packs (u, v).
	edgeSet  map[edgeKey]struct{}
	numEdges int
}

type edgeKey struct{ u, v VertexID }

// NewFull builds the complete CDG of topo with vcs virtual channels per
// physical channel: every consecutive-channel pair is connected (with
// vcs*vcs edges between the two vertex groups) except 180-degree turns.
// The full CDG of any topology with cycles is itself cyclic; apply a
// Breaker to obtain a deadlock-free acyclic CDG.
func NewFull(topo topology.Topology, vcs int) *Graph {
	if vcs < 1 {
		panic(fmt.Sprintf("cdg: invalid virtual channel count %d", vcs))
	}
	g := newEmpty(topo, vcs)
	for c1 := topology.ChannelID(0); c1 < topology.ChannelID(topo.NumChannels()); c1++ {
		ch1 := topo.Channel(c1)
		for _, c2 := range topo.OutChannels(ch1.Dst) {
			ch2 := topo.Channel(c2)
			if ch2.Dst == ch1.Src {
				continue // 180-degree turn
			}
			for vc1 := 0; vc1 < vcs; vc1++ {
				for vc2 := 0; vc2 < vcs; vc2++ {
					g.addEdge(g.Vertex(c1, vc1), g.Vertex(c2, vc2))
				}
			}
		}
	}
	return g
}

func newEmpty(topo topology.Topology, vcs int) *Graph {
	n := topo.NumChannels() * vcs
	return &Graph{
		topo:    topo,
		vcs:     vcs,
		out:     make([][]VertexID, n),
		in:      make([][]VertexID, n),
		edgeSet: make(map[edgeKey]struct{}),
	}
}

// Topology returns the underlying topology.
func (g *Graph) Topology() topology.Topology { return g.topo }

// VCs returns the number of virtual channels per physical channel.
func (g *Graph) VCs() int { return g.vcs }

// NumVertices reports the number of (channel, vc) vertices.
func (g *Graph) NumVertices() int { return len(g.out) }

// NumEdges reports the number of dependence edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Vertex returns the vertex for (ch, vc).
func (g *Graph) Vertex(ch topology.ChannelID, vc int) VertexID {
	if vc < 0 || vc >= g.vcs {
		panic(fmt.Sprintf("cdg: vc %d out of range [0,%d)", vc, g.vcs))
	}
	return VertexID(int(ch)*g.vcs + vc)
}

// ChannelVC is the inverse of Vertex.
func (g *Graph) ChannelVC(v VertexID) (topology.ChannelID, int) {
	return topology.ChannelID(int(v) / g.vcs), int(v) % g.vcs
}

// Out returns the successors of v. The returned slice must not be modified.
func (g *Graph) Out(v VertexID) []VertexID { return g.out[v] }

// In returns the predecessors of v. The returned slice must not be modified.
func (g *Graph) In(v VertexID) []VertexID { return g.in[v] }

// HasEdge reports whether the dependence u -> v exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	_, ok := g.edgeSet[edgeKey{u, v}]
	return ok
}

func (g *Graph) addEdge(u, v VertexID) {
	k := edgeKey{u, v}
	if _, ok := g.edgeSet[k]; ok {
		return
	}
	g.edgeSet[k] = struct{}{}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.numEdges++
}

// Filter returns a new graph containing exactly the edges of g for which
// keep returns true.
func (g *Graph) Filter(keep func(u, v VertexID) bool) *Graph {
	ng := newEmpty(g.topo, g.vcs)
	for u, succ := range g.out {
		for _, v := range succ {
			if keep(VertexID(u), v) {
				ng.addEdge(VertexID(u), v)
			}
		}
	}
	return ng
}

// WithEdge returns a copy of g with the dependence u -> v added (a
// no-op copy when the edge already exists). It is the mutation hook of
// the certificate checker's harness: flipping one edge of an acyclic
// CDG yields the known-cyclic mutants the checker must refute.
func (g *Graph) WithEdge(u, v VertexID) *Graph {
	ng := g.Filter(func(VertexID, VertexID) bool { return true })
	ng.addEdge(u, v)
	return ng
}

// TopoOrder returns a topological ordering of the vertices and true if the
// graph is acyclic, or nil and false otherwise (Kahn's algorithm).
func (g *Graph) TopoOrder() ([]VertexID, bool) {
	n := g.NumVertices()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.in[v])
	}
	queue := make([]VertexID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	order := make([]VertexID, 0, n)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, w := range g.out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, false
	}
	return order, true
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Graph) IsAcyclic() bool {
	_, ok := g.TopoOrder()
	return ok
}

// FindCycle returns one directed cycle as a vertex sequence (first element
// repeated at the end), or nil if the graph is acyclic. Intended for
// diagnostics when validating externally supplied route sets.
func (g *Graph) FindCycle() []VertexID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, g.NumVertices())
	parent := make([]VertexID, g.NumVertices())
	for i := range parent {
		parent[i] = InvalidVertex
	}
	var cycle []VertexID
	var dfs func(v VertexID) bool
	dfs = func(v VertexID) bool {
		color[v] = gray
		for _, w := range g.out[v] {
			if color[w] == gray {
				// Found a back edge v -> w: reconstruct the cycle.
				cycle = []VertexID{w}
				for x := v; x != w; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse to cycle order and close the loop.
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				cycle = append(cycle, w)
				return true
			}
			if color[w] == white {
				parent[w] = v
				if dfs(w) {
					return true
				}
			}
		}
		color[v] = black
		return false
	}
	for v := 0; v < g.NumVertices(); v++ {
		if color[v] == white && dfs(VertexID(v)) {
			return cycle
		}
	}
	return nil
}

// reachable reports whether there is a directed path from u to v.
func (g *Graph) reachable(u, v VertexID) bool {
	if u == v {
		return true
	}
	seen := make(map[VertexID]bool)
	stack := []VertexID{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.out[x] {
			if w == v {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}
