package certify

// peel runs Kahn's algorithm over n vertices with longest-path level
// propagation: rank[v] is the length of the longest dependence chain
// ending at v, and left[v] the in-degree v is left with once nothing more
// can be peeled — positive exactly on the cyclic core (the union of all
// cycles plus anything trapped downstream of them).
func peel(n int, edges []edge) (rank, left []int) {
	// Out-adjacency in CSR form, each vertex's successors in edge order.
	start := make([]int, n+1)
	left = make([]int, n)
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
	return rank, left
}

// layerRanks computes the layered ranking witness over n vertices.
// Returns ok=false when the edge set is cyclic — some vertices are then
// never peeled.
func layerRanks(n int, edges []edge) (rank []int, ok bool) {
	rank, left := peel(n, edges)
	for _, d := range left {
		if d > 0 {
			return rank, false
		}
	}
	return rank, true
}

// cyclicCore returns the vertices never peeled by Kahn's algorithm.
func cyclicCore(n int, edges []edge) []bool {
	_, left := peel(n, edges)
	core := make([]bool, n)
	for v, d := range left {
		core[v] = d > 0
	}
	return core
}

// minimalCycle finds a shortest directed cycle in the edge set, as a
// vertex sequence with the first vertex repeated at the end, or nil when
// acyclic. Breadth-first search back to each cyclic-core vertex,
// restricted to the core, gives the global minimum; ties resolve to the
// smallest starting vertex (deterministic counterexamples, so a seeded
// mutant always reports the same cycle).
func minimalCycle(n int, edges []edge) []int32 {
	core := cyclicCore(n, edges)
	out := make([][]int32, n)
	for _, e := range edges {
		if core[e.u] && core[e.v] {
			out[e.u] = append(out[e.u], e.v)
		}
	}
	var best []int32
	parent := make([]int32, n)
	dist := make([]int, n)
	for s := int32(0); int(s) < n; s++ {
		if !core[s] {
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
			for _, v := range out[u] {
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
