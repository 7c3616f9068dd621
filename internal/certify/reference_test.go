package certify

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/cdg"
)

// edge is one dependence u -> v in dense vertex numbering.
type edge struct{ u, v int32 }

// referenceEdges is the dependence graph as the checker once materialised
// it: every edge of the claimed CDG in row order, or (with no CDG) the
// deduplicated dependences the routes use, ascending (u, v).
func referenceEdges(in Instance) []edge {
	if in.CDG != nil {
		edges := make([]edge, 0, in.CDG.NumEdges())
		for u := 0; u < in.CDG.NumVertices(); u++ {
			for _, v := range in.CDG.Out(cdg.VertexID(u)) {
				edges = append(edges, edge{int32(u), int32(v)})
			}
		}
		return edges
	}
	used := make(map[edge]bool)
	walkRoutes(in, func(u, v int32) { used[edge{u, v}] = true })
	edges := make([]edge, 0, len(used))
	for e := range used {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	return edges
}

// referencePeel is the edge-list Kahn peel the row-based one replaced: it
// copies the edges into its own compressed rows, then peels with
// longest-path level propagation. ok reports that every vertex was peeled.
func referencePeel(n int, edges []edge) (rank []int, ok bool) {
	start := make([]int, n+1)
	left := make([]int, n)
	for _, e := range edges {
		start[e.u+1]++
		left[e.v]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	succ := make([]int32, len(edges))
	next := append([]int(nil), start[:n]...)
	for _, e := range edges {
		succ[next[e.u]] = e.v
		next[e.u]++
	}
	rank = make([]int, n)
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if left[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, v := range succ[start[u]:start[u+1]] {
			if rank[u]+1 > rank[v] {
				rank[v] = rank[u] + 1
			}
			left[v]--
			if left[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	for _, d := range left {
		if d > 0 {
			return rank, false
		}
	}
	return rank, true
}

// edgeDeps lays an edge list out as rows, each in edge order.
func edgeDeps(n int, edges []edge) deps {
	d := deps{n: n, start: make([]int32, n+1), adj: make([]cdg.VertexID, len(edges))}
	for _, e := range edges {
		d.start[e.u+1]++
	}
	for u := 1; u <= n; u++ {
		d.start[u] += d.start[u-1]
	}
	next := slices.Clone(d.start)
	for _, e := range edges {
		d.adj[next[e.u]] = cdg.VertexID(e.v)
		next[e.u]++
	}
	return d
}

// assertPeelMatchesReference holds the row-based peel of an instance's
// dependence graph to the edge-list one: the same rows, the same acyclic
// verdict, and on an acyclic graph the same ranks.
func assertPeelMatchesReference(t *testing.T, label string, in Instance) (acyclicGraph bool) {
	t.Helper()
	n := in.Topo.NumChannels() * in.VCs
	d := dependences(in)
	edges := referenceEdges(in)
	var got []edge
	for u := 0; u < d.n; u++ {
		for _, v := range d.out(u) {
			got = append(got, edge{int32(u), int32(v)})
		}
	}
	if !slices.Equal(got, edges) {
		t.Fatalf("%s: rows hold %d dependences, reference edges %d, or their order differs",
			label, len(got), len(edges))
	}
	rank, left := peel(&d)
	wantRank, wantOK := referencePeel(n, edges)
	if acyclic(left) != wantOK {
		t.Fatalf("%s: row peel acyclic=%v, reference %v", label, acyclic(left), wantOK)
	}
	if wantOK && !slices.Equal(rank, wantRank) {
		t.Fatalf("%s: row peel ranks differ from the reference", label)
	}
	return wantOK
}

// referenceRank is the edge-list peel's ranking of an acyclic instance.
func referenceRank(t *testing.T, label string, in Instance) []int {
	t.Helper()
	rank, ok := referencePeel(in.Topo.NumChannels()*in.VCs, referenceEdges(in))
	if !ok {
		t.Fatalf("%s: the edge-list peel calls the graph cyclic", label)
	}
	return rank
}
