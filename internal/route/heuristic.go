package route

import (
	"context"
	"math"
	"sort"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/metrics"
)

// BSORHeuristic is the fast bandwidth-aware approximation the thesis pairs
// with the exact MILP (§3.6, §7.3): flows are routed one at a time in
// decreasing-demand order, each choosing — among its candidate paths on the
// acyclic CDG — the path that minimizes the maximum load of the channels it
// would cross. Like every BSOR selector it operates on a flow network
// derived from an acyclic CDG, so its route sets are deadlock free by
// construction; unlike the MILP its cost is one candidate sweep per flow,
// which keeps 16x16-scale synthesis in the sub-second range.
type BSORHeuristic struct {
	// HopSlack is the extra hop budget over the minimal path length
	// (thesis: increments of 2).
	HopSlack int
	// HopSlackOverride replaces HopSlack for specific flows, keyed by flow
	// index (zero forces a latency-critical flow onto minimal routes).
	HopSlackOverride map[int]int
	// MaxPathsPerFlow caps the candidate paths considered per flow
	// (deduplicated by physical channel sequence); zero means 32.
	MaxPathsPerFlow int
	// Metrics, when non-nil, counts candidate paths kept in the pool
	// (route_paths_kept_total). Metrics never influence selection.
	Metrics *metrics.Collector
}

// Name implements Selector.
func (h BSORHeuristic) Name() string { return "BSOR-Heuristic" }

// SelectContext implements Selector: cancellation is polled in
// candidate enumeration and once per routed flow.
func (h BSORHeuristic) SelectContext(ctx context.Context, g *flowgraph.Graph) (*Set, error) {
	flows := g.Flows()
	if len(flows) == 0 {
		return &Set{Topo: g.CDG().Topology()}, nil
	}
	maxPaths := h.MaxPathsPerFlow
	if maxPaths == 0 {
		maxPaths = 32
	}
	budgets, err := hopBudgets(g, h.HopSlack, h.HopSlackOverride)
	if err != nil {
		return nil, err
	}
	candidates, err := g.EnumerateAllContext(ctx, budgets, maxPaths, 0)
	if err != nil {
		return nil, err
	}
	var scratch dijkstraScratch
	for i := range flows {
		if len(candidates[i]) == 0 {
			// Restrictive CDGs (dateline rules on large tori) can force
			// detours past the hop budget; fall back to the flow's
			// fewest-hop path in the CDG so the selector stays total, like
			// the budget-free Dijkstra selector.
			p, err := shortestPathGA(&scratch, g, i, func(cdg.VertexID) float64 { return 1 })
			if err != nil {
				return nil, noPathError(g, i, budgets[i])
			}
			candidates[i] = []flowgraph.Path{p}
		}
	}

	var kept int64
	for i := range candidates {
		kept += int64(len(candidates[i]))
	}
	h.Metrics.Counter("route_paths_kept_total").Add(kept)

	// Route heavy flows first: they are the hardest to place, and placing
	// them on an empty network gives them the widest choice.
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return flows[order[a]].Demand > flows[order[b]].Demand
	})

	dag := g.CDG()
	loads := make([]float64, dag.Topology().NumChannels())
	routes := make([]Route, len(flows))
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		demand := flows[i].Demand
		best, bestPeak, bestHops := -1, math.Inf(1), 0
		for pi, p := range candidates[i] {
			peak := 0.0
			for _, v := range p {
				ch, _ := dag.ChannelVC(v)
				if l := loads[ch] + demand; l > peak {
					peak = l
				}
			}
			// Min-max load, ties to the shorter path, then to enumeration
			// order — fully deterministic.
			if best < 0 || peak < bestPeak-1e-9 ||
				(peak <= bestPeak+1e-9 && len(p) < bestHops) {
				best, bestPeak, bestHops = pi, peak, len(p)
			}
		}
		routes[i] = routeFromPath(g, i, candidates[i][best])
		for _, ch := range routes[i].Channels {
			loads[ch] += demand
		}
	}
	return &Set{Topo: dag.Topology(), Routes: routes}, nil
}
