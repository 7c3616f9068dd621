package certify

import (
	"slices"

	"repro/internal/cdg"
)

// deps is the dependence graph the ranking must cover, read in place: the
// claimed CDG's own rows, or (with no CDG) the deduplicated dependences the
// routes use, in compressed rows built once by usedDeps.
type deps struct {
	n   int
	cdg *cdg.Graph
	// start/adj hold the used dependences when cdg is nil: the successors
	// of u are adj[start[u]:start[u+1]], strictly ascending.
	start []int32
	adj   []cdg.VertexID
}

// out returns u's successors. The slice must not be modified.
func (d *deps) out(u int) []cdg.VertexID {
	if d.cdg != nil {
		return d.cdg.Out(cdg.VertexID(u))
	}
	return d.adj[d.start[u]:d.start[u+1]]
}

// usedDeps builds the rows of the dependences the routes use, each row
// sorted and deduplicated: the ranking's graph when no CDG is claimed. The
// walk stops at the first invalid route, as walkRoutes does, so it never
// indexes past the instance.
func usedDeps(in Instance) deps {
	n := in.Topo.NumChannels() * in.VCs
	d := deps{n: n, start: make([]int32, n+1)}
	walkRoutes(in, func(u, _ int32) { d.start[u+1]++ })
	for u := 1; u <= n; u++ {
		d.start[u] += d.start[u-1]
	}
	// Fill with start[u] as u's cursor, which leaves start[u] at the end of
	// u's row; shifting by one restores it.
	d.adj = make([]cdg.VertexID, d.start[n])
	walkRoutes(in, func(u, v int32) {
		d.adj[d.start[u]] = cdg.VertexID(v)
		d.start[u]++
	})
	copy(d.start[1:], d.start[:n])
	d.start[0] = 0
	// Sort and compact each row toward the front of adj.
	w, a := int32(0), int32(0)
	for u := 0; u < n; u++ {
		b := d.start[u+1]
		row := d.adj[a:b]
		slices.Sort(row)
		d.start[u] = w
		w += int32(copy(d.adj[w:], slices.Compact(row)))
		a = b
	}
	d.start[n] = w
	d.adj = d.adj[:w]
	return d
}

// peel runs Kahn's algorithm over the rows with longest-path level
// propagation: rank[v] is the length of the longest dependence chain
// ending at v, and left[v] the in-degree v is left with once nothing more
// can be peeled — positive exactly on the cyclic core (the union of all
// cycles plus anything trapped downstream of them). Ranks are levels, not
// visit positions, so they do not depend on the order of the peel.
func peel(d *deps) (rank []int, left []int32) {
	left = make([]int32, d.n)
	for u := 0; u < d.n; u++ {
		for _, v := range d.out(u) {
			left[v]++
		}
	}
	rank = make([]int, d.n)
	queue := make([]int32, 0, d.n)
	for v, l := range left {
		if l == 0 {
			queue = append(queue, int32(v))
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, v := range d.out(int(u)) {
			if rank[u]+1 > rank[v] {
				rank[v] = rank[u] + 1
			}
			left[v]--
			if left[v] == 0 {
				queue = append(queue, int32(v))
			}
		}
	}
	return rank, left
}

// acyclic reports whether a peel removed every vertex.
func acyclic(left []int32) bool {
	for _, l := range left {
		if l > 0 {
			return false
		}
	}
	return true
}

// minimalCycle finds a shortest directed cycle of the graph, as a vertex
// sequence with the first vertex repeated at the end, or nil when acyclic.
// left is the graph's peel residue: breadth-first search back to each
// cyclic-core vertex, restricted to the core, gives the global minimum;
// ties resolve to the smallest starting vertex (deterministic
// counterexamples, so a seeded mutant always reports the same cycle).
func minimalCycle(d *deps, left []int32) []int32 {
	var best []int32
	parent := make([]int32, d.n)
	dist := make([]int, d.n)
	for s := int32(0); int(s) < d.n; s++ {
		if left[s] == 0 {
			continue
		}
		if best != nil && len(best)-1 <= 2 {
			break // a 2-cycle is the minimum possible (no self loops)
		}
		for v := range dist {
			dist[v] = -1
		}
		dist[s] = 0
		queue := []int32{s}
		found := int32(-1)
	bfs:
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if best != nil && dist[u]+1 >= len(best)-1 {
				break // cannot improve on the best cycle
			}
			for _, w := range d.out(int(u)) {
				v := int32(w)
				if left[v] == 0 {
					continue // off the cyclic core
				}
				if v == s {
					found = u
					break bfs
				}
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		if found < 0 {
			continue
		}
		cycle := []int32{s}
		for v := found; v != s; v = parent[v] {
			cycle = append(cycle, v)
		}
		// parent chains run backward; reverse into forward cycle order.
		for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
			cycle[i], cycle[j] = cycle[j], cycle[i]
		}
		cycle = append(cycle, s)
		if best == nil || len(cycle) < len(best) {
			best = cycle
		}
	}
	return best
}
