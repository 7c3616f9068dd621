package route

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/lp"
	"repro/internal/metrics"
)

// MILPSelector is BSOR_MILP (thesis §3.5): route selection as an
// unsplittable multicommodity-flow MILP minimizing the maximum channel
// load, subject to per-flow hop budgets.
//
// The thesis solves the edge formulation with a commercial solver. This
// implementation solves an equivalent path formulation with the in-repo
// branch-and-bound solver: under the paper's hop-budget constraint every
// flow has a finite candidate path set, so choosing one binary per
// candidate path per flow and minimizing U over the shared channel-load
// rows reaches the same optimum. When a flow's candidate set is too large
// to enumerate exhaustively, enumeration is truncated and the master is
// solved over that capped pool plus three coordinated Dijkstra route sets
// (the heuristic-effort mode the thesis itself suggests for large
// instances, §7.3).
type MILPSelector struct {
	// HopSlack is the extra hop budget over the minimal path length. Zero
	// restricts routes to minimal paths; the thesis recommends increments
	// of 2 (a detour is always an even number of extra hops on a mesh).
	HopSlack int
	// HopSlackOverride replaces HopSlack for specific flows (keyed by
	// flow index); an override of zero forces a latency-critical flow
	// onto minimal routes while others may detour (§7.2).
	HopSlackOverride map[int]int
	// MaxPathsPerFlow truncates exhaustive candidate enumeration; zero
	// means 256.
	MaxPathsPerFlow int
	// MaxNodes caps the branch-and-bound nodes of the one master solve;
	// zero means the lp package default.
	MaxNodes int
	// Gap is the absolute optimality gap accepted by branch and bound;
	// a value below the smallest demand difference that matters (e.g.
	// 0.01 MB/s) prunes aggressively without changing which MCL tier is
	// reached.
	Gap float64
	// Seed seeds the weight perturbation of the two perturbed Dijkstra
	// route sets that join the candidate pool beside the plain one.
	Seed int64
	// Metrics, when non-nil, receives route-layer instruments: candidate
	// paths kept in the pool (route_paths_kept_total), injected paths
	// skipped as channel-sequence duplicates (route_paths_deduped_total),
	// and the LP core's pivot/refactorization/node counters. Metrics never
	// influence selection; a nil collector disables everything.
	Metrics *metrics.Collector
}

// Name implements Selector.
func (ms MILPSelector) Name() string { return "BSOR-MILP" }

func (ms MILPSelector) withDefaults() MILPSelector {
	if ms.MaxPathsPerFlow == 0 {
		ms.MaxPathsPerFlow = 256
	}
	return ms
}

// chanKey identifies a candidate path by its physical channel sequence.
// Two paths differing only in VC labels induce identical channel-load rows
// in the restricted master, so one canonical candidate per sequence keeps
// the MILP small without excluding any achievable load vector.
func chanKey(g *flowgraph.Graph, p flowgraph.Path) string {
	dag := g.CDG()
	b := make([]byte, 0, 4*len(p))
	for _, v := range p {
		ch, _ := dag.ChannelVC(v)
		b = append(b, byte(ch), byte(ch>>8), byte(ch>>16), byte(ch>>24))
	}
	return string(b)
}

// hopBudgets computes each flow's hop budget: minimal distance plus slack
// (with per-flow overrides), shared by the MILP and heuristic selectors.
func hopBudgets(g *flowgraph.Graph, slack int, overrides map[int]int) ([]int, error) {
	flows := g.Flows()
	budgets := make([]int, len(flows))
	var s hopScratch
	for i, f := range flows {
		min := minimalHops(&s, g.CDG().Topology(), f.Src, f.Dst)
		if min < 0 {
			return nil, fmt.Errorf("route: flow %s endpoints are disconnected", f.Name)
		}
		budgets[i] = min + slack
		if ov, ok := overrides[i]; ok {
			budgets[i] = min + ov
		}
	}
	return budgets, nil
}

// noPathError reports an empty candidate set for flow i.
func noPathError(g *flowgraph.Graph, i, budget int) error {
	f, topo := g.Flows()[i], g.CDG().Topology()
	return &NoPathError{Flow: f.Name, Src: topo.NodeName(f.Src), Dst: topo.NodeName(f.Dst), Budget: budget}
}

// pool is the candidate set of one selection: per flow, the paths offered
// to the restricted master, one per distinct channel sequence, each stored
// beside the chanKey that identifies it.
type pool struct {
	g       *flowgraph.Graph
	paths   [][]flowgraph.Path
	keys    [][]string
	seen    []map[string]bool
	metrics *metrics.Collector
}

// add appends p to flow i's candidates unless a path over the same channel
// sequence is already there; that is counted in route_paths_deduped_total.
func (pl *pool) add(i int, p flowgraph.Path) {
	k := chanKey(pl.g, p)
	if pl.seen[i][k] {
		pl.metrics.Counter("route_paths_deduped_total").Inc()
		return
	}
	pl.seen[i][k] = true
	pl.paths[i] = append(pl.paths[i], p)
	pl.keys[i] = append(pl.keys[i], k)
}

// SelectContext implements Selector: cancellation is polled in
// candidate enumeration and inside the branch-and-bound solve. It builds
// one candidate pool — capped enumeration and three Dijkstra route sets —
// solves one restricted master over it from a start (the best Dijkstra set
// within every hop budget, else each flow's first candidate), and returns
// the better of the two.
func (ms MILPSelector) SelectContext(ctx context.Context, g *flowgraph.Graph) (*Set, error) {
	flows := g.Flows()
	ms = ms.withDefaults()
	if len(flows) == 0 {
		return &Set{Topo: g.CDG().Topology()}, nil
	}

	budgets, err := hopBudgets(g, ms.HopSlack, ms.HopSlackOverride)
	if err != nil {
		return nil, err
	}
	// Width 0: the enumerator sizes itself to GOMAXPROCS and merges in
	// flow order, so its output is the same at any width.
	enumerated, err := g.EnumerateAllContext(ctx, budgets, ms.MaxPathsPerFlow, 0)
	if err != nil {
		return nil, err
	}
	pl := &pool{g: g, metrics: ms.Metrics,
		paths: make([][]flowgraph.Path, len(flows)),
		keys:  make([][]string, len(flows)),
		seen:  make([]map[string]bool, len(flows))}
	for i, paths := range enumerated {
		if len(paths) == 0 {
			return nil, noPathError(g, i, budgets[i])
		}
		pl.seen[i] = make(map[string]bool, len(paths))
		for _, p := range paths {
			pl.add(i, p)
		}
	}

	// Exhaustive enumeration is truncated depth-first and therefore
	// biased for long flows; seed the pool with coordinated Dijkstra
	// solutions (plain and perturbed) so the MILP always has at least the
	// heuristic's route set available — its optimum can then never be
	// worse than BSOR_Dijkstra's.
	var (
		start    *Set
		startMCL float64
	)
	for seedOff := int64(0); seedOff < 3; seedOff++ {
		sel := DijkstraSelector{}
		if seedOff > 0 {
			prng := rand.New(rand.NewSource(ms.Seed + seedOff))
			sel.Perturb = func(v cdg.VertexID) float64 { return prng.Float64() * 1e-3 }
		}
		dset, err := sel.SelectContext(ctx, g)
		if err != nil {
			// e.g. a flow unreachable without hop budget, which enumeration
			// already covered, or ctx done, which the solve below reports.
			break
		}
		withinBudget := true
		for i, r := range dset.Routes {
			if len(r.Channels) > budgets[i] {
				withinBudget = false
				continue
			}
			pl.add(i, liftRoute(g, r))
		}
		// A Dijkstra solution within every budget doubles as the start:
		// the initial incumbent, and the vertex the master's simplex
		// crashes from.
		if withinBudget {
			if mcl, _ := dset.MCL(); start == nil || mcl < startMCL {
				start, startMCL = dset, mcl
			}
		}
	}
	// Under the hop budget any one pooled candidate per flow is a route
	// set, so the master always has a start.
	if start == nil {
		start = &Set{Topo: g.CDG().Topology(), Routes: make([]Route, len(flows))}
		for i := range flows {
			start.Routes[i] = routeFromPath(g, i, pl.paths[i][0])
		}
		startMCL, _ = start.MCL()
	}

	// The start stands on a tie, and whenever the node budget truncates
	// the search before it finds anything better.
	set, err := ms.solveRestricted(ctx, pl, start, startMCL)
	if err != nil {
		return nil, err
	}
	if mcl, _ := set.MCL(); mcl < startMCL-1e-9 {
		start = set
	}
	var kept int64
	for i := range pl.paths {
		kept += int64(len(pl.paths[i]))
	}
	ms.Metrics.Counter("route_paths_kept_total").Add(kept)
	return start, nil
}

// liftRoute maps r's (channel, VC) hops to the vertices of g's CDG without
// checking that they are connected there.
func liftRoute(g *flowgraph.Graph, r Route) flowgraph.Path {
	p := make(flowgraph.Path, len(r.Channels))
	for k, ch := range r.Channels {
		p[k] = g.CDG().Vertex(ch, r.VCs[k])
	}
	return p
}

// solveRestricted builds and solves the path-based MILP over the pool,
// warm-started from start, a route set of pooled candidates whose MCL is
// startMCL:
//
//	minimize U
//	s.t.  sum_p x[i][p] == 1                      for every flow i
//	      sum_{i,p crossing channel e} d_i x[i][p] <= U   for every channel e
//	      x binary, U >= 0
func (ms MILPSelector) solveRestricted(ctx context.Context, pl *pool, start *Set, startMCL float64) (*Set, error) {
	g := pl.g
	flows := g.Flows()
	p := lp.NewProblem()
	// Flows are unsplittable, so every flow's full demand crosses its first
	// channel and the MCL can never undercut the largest demand. That lower
	// bound on U lets the master drop every channel row only one flow's
	// candidates can touch (its load is at most that flow's demand), which
	// shrinks the LP basis — every eta column, ratio test and ftran/btran
	// result of the revised simplex is one entry per row, and every such
	// row is coupled to the rest through U.
	uLB := 0.0
	for _, f := range flows {
		if f.Demand > uLB {
			uLB = f.Demand
		}
	}
	u := p.AddVar("U", uLB, lp.Inf, 1)

	// The warm start puts U at the start's MCL and, per flow, 1 on the
	// candidate over the start route's channel sequence. Keys are channel
	// signatures, so a start route matches its retained candidate even when
	// their VC labels differ (the loads, and hence the MCL, agree); the
	// pool keeps one candidate per key.
	startKey := make([]string, len(flows))
	for i, r := range start.Routes {
		startKey[i] = chanKey(g, liftRoute(g, r))
	}

	type pathVar struct{ flow, path int }
	vars := make(map[int]pathVar) // lp var -> (flow, path)
	warm := []float64{startMCL}   // index 0 is U
	// Per channel: its load terms, the last flow and the last path (an lp
	// var) whose candidates touched it, and whether two flows did.
	dag := g.CDG()
	nCh := dag.Topology().NumChannels()
	chTerms := make([][]lp.Term, nCh)
	chFlow := make([]int, nCh)
	chPath := make([]int, nCh)
	chShared := make([]bool, nCh)
	for ch := range chFlow {
		chFlow[ch], chPath[ch] = -1, -1
	}
	for i := range flows {
		choose := make([]lp.Term, 0, len(pl.paths[i]))
		for pi, path := range pl.paths[i] {
			v := p.AddBinary(fmt.Sprintf("x[%s,%d]", flows[i].Name, pi), 0)
			vars[v] = pathVar{i, pi}
			if pl.keys[i][pi] == startKey[i] {
				warm = append(warm, 1)
			} else {
				warm = append(warm, 0)
			}
			choose = append(choose, lp.Term{Var: v, Coef: 1})
			// A path never repeats a channel (DAG conformance), but with
			// multiple VCs it could cross two VC vertices of one channel;
			// deduplicate so loads are not double counted.
			for _, x := range path {
				ch, _ := dag.ChannelVC(x)
				if chPath[ch] == v {
					continue
				}
				chPath[ch] = v
				if chFlow[ch] >= 0 && chFlow[ch] != i {
					chShared[ch] = true
				}
				chFlow[ch] = i
				chTerms[ch] = append(chTerms[ch], lp.Term{Var: v, Coef: flows[i].Demand})
			}
		}
		p.AddConstraint(choose, lp.EQ, 1)
	}
	// Channel rows in ascending channel order: the constraint order decides
	// which of several equally-optimal vertices the solver lands on, and
	// the golden determinism tests pin byte-identical synthesis output.
	for ch, terms := range chTerms {
		// With U bounded below by the largest demand, a channel only one
		// flow's candidates can touch never exceeds U; its row is redundant.
		if !chShared[ch] {
			continue
		}
		row := append(terms, lp.Term{Var: u, Coef: -1})
		p.AddConstraint(row, lp.LE, 0)
	}

	opts := lp.MILPOptions{MaxNodes: ms.MaxNodes, Gap: ms.Gap, WarmStart: warm}
	if ms.Metrics != nil {
		opts.Instruments = lp.Instruments{
			Pivots:           ms.Metrics.Counter("lp_simplex_pivots_total"),
			Refactorizations: ms.Metrics.Counter("lp_refactorizations_total"),
			Nodes:            ms.Metrics.Counter("lp_bb_nodes_total"),
			ColdFallbacks:    ms.Metrics.Counter("lp_cold_fallbacks_total"),
			Phase1Pivots:     ms.Metrics.Counter("lp_phase1_pivots_total"),
		}
	}
	sol, err := lp.SolveMILPContext(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal && sol.Status != lp.Feasible {
		// Only a start the solver refused as an incumbent leaves a search
		// without one; the start is the answer then.
		return start, nil
	}
	routes := make([]Route, len(flows))
	assigned := make([]bool, len(flows))
	for v, pv := range vars {
		if sol.Value(v) > 0.5 {
			routes[pv.flow] = routeFromPath(g, pv.flow, pl.paths[pv.flow][pv.path])
			assigned[pv.flow] = true
		}
	}
	for i, ok := range assigned {
		if !ok {
			return nil, fmt.Errorf("route: MILP left flow %s unrouted", flows[i].Name)
		}
	}
	return &Set{Topo: dag.Topology(), Routes: routes}, nil
}
