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
	"slices"
	"sync"

	"repro/internal/topology"
)

// VertexID identifies a (channel, virtual channel) vertex of a CDG.
// Vertices are numbered densely: vertex = channel*VCs + vc.
type VertexID int32

// Graph is a channel dependence graph over a topology with a fixed number
// of virtual channels per physical channel. Its edges are immutable once
// its constructor (NewFull, Filter, WithEdge or a Breaker) returns, the
// reverse rows are built once under a sync.Once, and it is safe to share
// between goroutines.
type Graph struct {
	topo topology.Topology
	vcs  int

	// out[u] lists u's successors. Rows are windows of one backing array,
	// each clipped to its own capacity, so an append can never write into a
	// neighbouring row. Row order is part of the contract: route search
	// tie-breaks and path enumeration order follow it.
	out      [][]VertexID
	numEdges int
	// ascending records that every row is strictly ascending, which lets
	// HasEdge binary-search.
	ascending bool

	// inStart/inAdj are the reverse rows in compressed form, built by the
	// first In call: the predecessors of v are inAdj[inStart[v]:inStart[v+1]].
	inOnce  sync.Once
	inStart []int
	inAdj   []VertexID
}

// NewFull builds the complete CDG of topo with vcs virtual channels per
// physical channel: every consecutive-channel pair is connected (with
// vcs*vcs edges between the two vertex groups) except 180-degree turns.
// The full CDG of any topology with cycles is itself cyclic; apply a
// Breaker to obtain a deadlock-free acyclic CDG.
func NewFull(topo topology.Topology, vcs int) *Graph {
	if vcs < 1 {
		panic(fmt.Sprintf("cdg: invalid virtual channel count %d", vcs))
	}
	nCh := topo.NumChannels()
	// next(c1) visits the channels that may follow c1: those leaving its
	// destination, minus the 180-degree turn.
	next := func(c1 topology.ChannelID, visit func(c2 topology.ChannelID)) {
		ch1 := topo.Channel(c1)
		for _, c2 := range topo.OutChannels(ch1.Dst) {
			if topo.Channel(c2).Dst != ch1.Src {
				visit(c2)
			}
		}
	}
	pairs := 0
	for c1 := topology.ChannelID(0); c1 < topology.ChannelID(nCh); c1++ {
		next(c1, func(topology.ChannelID) { pairs++ })
	}
	g := &Graph{
		topo:      topo,
		vcs:       vcs,
		out:       make([][]VertexID, nCh*vcs),
		numEdges:  pairs * vcs * vcs,
		ascending: true,
	}
	backing := make([]VertexID, 0, g.numEdges)
	for c1 := topology.ChannelID(0); c1 < topology.ChannelID(nCh); c1++ {
		// The vcs vertices of c1 share one successor list; build it once.
		a := len(backing)
		next(c1, func(c2 topology.ChannelID) {
			for vc2 := 0; vc2 < vcs; vc2++ {
				backing = append(backing, g.Vertex(c2, vc2))
			}
		})
		b := len(backing)
		for k := a + 1; k < b; k++ {
			if backing[k-1] >= backing[k] {
				g.ascending = false
			}
		}
		g.out[g.Vertex(c1, 0)] = backing[a:b:b]
		for vc1 := 1; vc1 < vcs; vc1++ {
			backing = append(backing, backing[a:b]...)
			g.out[g.Vertex(c1, vc1)] = backing[len(backing)-(b-a) : len(backing) : len(backing)]
		}
	}
	return g
}

// newRows returns an edgeless graph over like's vertices in which row u can
// take len(like.Out(u)) addEdge calls without leaving the shared backing
// array.
func newRows(like *Graph) *Graph {
	g := &Graph{
		topo:      like.topo,
		vcs:       like.vcs,
		out:       make([][]VertexID, len(like.out)),
		ascending: true,
	}
	backing := make([]VertexID, like.numEdges)
	a := 0
	for u, succ := range like.out {
		b := a + len(succ)
		g.out[u] = backing[a:a:b]
		a = b
	}
	return g
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

// In returns the predecessors of v in ascending order. The reverse rows
// are built on the first call and shared by every later one, from any
// goroutine. The returned slice must not be modified.
func (g *Graph) In(v VertexID) []VertexID {
	g.inOnce.Do(func() {
		n := len(g.out)
		start := make([]int, n+1)
		for _, succ := range g.out {
			for _, w := range succ {
				start[w+1]++
			}
		}
		for v := 1; v <= n; v++ {
			start[v] += start[v-1]
		}
		// Fill in ascending u with start[w] as w's cursor, which leaves
		// start[w] at the end of w's row; shifting by one restores it.
		adj := make([]VertexID, start[n])
		for u, succ := range g.out {
			for _, w := range succ {
				adj[start[w]] = VertexID(u)
				start[w]++
			}
		}
		copy(start[1:], start[:n])
		start[0] = 0
		g.inStart, g.inAdj = start, adj
	})
	return g.inAdj[g.inStart[v]:g.inStart[v+1]]
}

// HasEdge reports whether the dependence u -> v exists. It is total: ids
// outside the graph (negative, or a vertex of a larger fabric) have no
// edges. The cost is a search of u's row, binary when rows are ascending.
func (g *Graph) HasEdge(u, v VertexID) bool {
	if u < 0 || int(u) >= len(g.out) {
		return false
	}
	if g.ascending {
		_, ok := slices.BinarySearch(g.out[u], v)
		return ok
	}
	return slices.Contains(g.out[u], v)
}

// addEdge appends u -> v, which must be absent, to u's row. Only
// constructors call it, on a graph they have not yet returned.
func (g *Graph) addEdge(u, v VertexID) {
	if row := g.out[u]; len(row) > 0 && row[len(row)-1] >= v {
		g.ascending = false
	}
	g.out[u] = append(g.out[u], v)
	g.numEdges++
}

// Filter returns a new graph containing exactly the edges of g for which
// keep returns true, in g's row order. keep is called once per edge.
func (g *Graph) Filter(keep func(u, v VertexID) bool) *Graph {
	ng := &Graph{
		topo:      g.topo,
		vcs:       g.vcs,
		out:       make([][]VertexID, len(g.out)),
		ascending: g.ascending,
	}
	backing := make([]VertexID, 0, g.numEdges)
	for u, succ := range g.out {
		a := len(backing)
		for _, v := range succ {
			if keep(VertexID(u), v) {
				backing = append(backing, v)
			}
		}
		ng.out[u] = backing[a:len(backing):len(backing)]
	}
	ng.numEdges = len(backing)
	return ng
}

// WithEdge returns a copy of g with the dependence u -> v added (a
// no-op copy when the edge already exists). It is the mutation hook of
// the certificate checker's harness: flipping one edge of an acyclic
// CDG yields the known-cyclic mutants the checker must refute.
func (g *Graph) WithEdge(u, v VertexID) *Graph {
	ng := g.Filter(func(VertexID, VertexID) bool { return true })
	if !ng.HasEdge(u, v) {
		ng.addEdge(u, v)
	}
	return ng
}

// IsAcyclic reports whether the graph has no directed cycle: Kahn's
// algorithm, counting the vertices it removes.
func (g *Graph) IsAcyclic() bool {
	indeg := make([]int32, len(g.out))
	for _, succ := range g.out {
		for _, w := range succ {
			indeg[w]++
		}
	}
	stack := make([]VertexID, 0, len(g.out))
	for v, d := range indeg {
		if d == 0 {
			stack = append(stack, VertexID(v))
		}
	}
	removed := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		removed++
		for _, w := range g.out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				stack = append(stack, w)
			}
		}
	}
	return removed == len(g.out)
}

// reachScratch is the working memory of repeated reachable queries. It
// belongs to the caller's frame, never to a Graph: graphs are shared
// between goroutines once built.
type reachScratch struct {
	// seen[w] == query marks w visited by the current query, so starting a
	// new query clears nothing.
	seen  []int
	query int
	stack []VertexID
}

// reachable reports whether there is a directed path from u to v.
func (g *Graph) reachable(u, v VertexID, s *reachScratch) bool {
	if u == v {
		return true
	}
	if len(s.seen) < len(g.out) {
		s.seen = make([]int, len(g.out))
		s.query = 0
	}
	s.query++
	s.seen[u] = s.query
	s.stack = append(s.stack[:0], u)
	for len(s.stack) > 0 {
		x := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, w := range g.out[x] {
			if w == v {
				return true
			}
			if s.seen[w] != s.query {
				s.seen[w] = s.query
				s.stack = append(s.stack, w)
			}
		}
	}
	return false
}
