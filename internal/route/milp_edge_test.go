package route

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cdg"
	"repro/internal/flowgraph"
	"repro/internal/lp"
	"repro/internal/topology"
)

// Objective selects the MILP objective function of thesis §3.5.
type Objective int

// Edge-MILP objectives.
const (
	// MinMCL minimizes the maximum channel load U (equation 3.2); every
	// flow's full demand must be routed.
	MinMCL Objective = iota
	// MaxThroughput maximizes total delivered bandwidth S = sum g_i
	// (equation 3.3) under hard channel capacities; flows may be
	// partially satisfied.
	MaxThroughput
	// MaxMinFraction maximizes T = min_i g_i/d_i (equation 3.4) under
	// hard channel capacities.
	MaxMinFraction
)

func (o Objective) String() string {
	switch o {
	case MinMCL:
		return "min-MCL"
	case MaxThroughput:
		return "max-throughput"
	case MaxMinFraction:
		return "max-min-fraction"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// EdgeMILPResult carries the routes and the objective details of EdgeMILP.
type EdgeMILPResult struct {
	Set *Set
	// Objective is the optimal objective value: U for MinMCL, S for
	// MaxThroughput, T for MaxMinFraction.
	Objective float64
	// Delivered holds g_i, the bandwidth delivered per flow (equals the
	// demand under MinMCL).
	Delivered []float64
	// Nodes is the branch-and-bound node count.
	Nodes int
}

// EdgeMILP solves the thesis' exact edge-based MILP formulation (§3.5)
// over the flow network: per-flow edge flow variables f_i(u,v), Boolean
// single-path indicators b_i(u,v), flow conservation, channel capacity,
// unsplittable-flow coupling, and per-flow hop budgets of minimal length
// plus hopSlack. It is exponential in the worst case and intended for
// small and medium instances (the thesis reaches the same conclusion for
// CPLEX); use MILPSelector for large ones.
func EdgeMILP(g *flowgraph.Graph, hopSlack int, obj Objective, opts lp.MILPOptions) (*EdgeMILPResult, error) {
	flows := g.Flows()
	dag := g.CDG()
	topo := dag.Topology()
	p := lp.NewProblem()

	type edge struct{ u, v cdg.VertexID }
	// Edges usable by flow i: all CDG edges plus flow i's own terminal
	// edges. Each flow's terminals are numbered after the CDG vertices.
	var cdgEdges []edge
	nCDG := dag.NumVertices()
	src, snk := cdg.VertexID(nCDG), cdg.VertexID(nCDG+1)
	for u := 0; u < nCDG; u++ {
		for _, v := range dag.Out(cdg.VertexID(u)) {
			cdgEdges = append(cdgEdges, edge{cdg.VertexID(u), v})
		}
	}

	fVar := make([]map[edge]int, len(flows)) // continuous flow
	bVar := make([]map[edge]int, len(flows)) // Boolean path indicator
	gVar := make([]int, len(flows))          // delivered bandwidth g_i
	edgesOf := make([][]edge, len(flows))

	for i, f := range flows {
		edgesOf[i] = append([]edge(nil), cdgEdges...)
		for _, ch := range topo.OutChannels(f.Src) {
			for vc := 0; vc < dag.VCs(); vc++ {
				edgesOf[i] = append(edgesOf[i], edge{src, dag.Vertex(ch, vc)})
			}
		}
		for _, ch := range topo.InChannels(f.Dst) {
			for vc := 0; vc < dag.VCs(); vc++ {
				edgesOf[i] = append(edgesOf[i], edge{dag.Vertex(ch, vc), snk})
			}
		}
		fVar[i] = make(map[edge]int, len(edgesOf[i]))
		bVar[i] = make(map[edge]int, len(edgesOf[i]))
		for _, e := range edgesOf[i] {
			fVar[i][e] = p.AddVar(fmt.Sprintf("f[%s,%d->%d]", f.Name, e.u, e.v), 0, f.Demand, 0)
			bVar[i][e] = p.AddBinary(fmt.Sprintf("b[%s,%d->%d]", f.Name, e.u, e.v), 0)
		}
		switch obj {
		case MinMCL:
			gVar[i] = p.AddVar("g["+f.Name+"]", f.Demand, f.Demand, 0) // fixed
		case MaxThroughput:
			gVar[i] = p.AddVar("g["+f.Name+"]", 0, f.Demand, -1) // max S as min -S
		default:
			gVar[i] = p.AddVar("g["+f.Name+"]", 0, f.Demand, 0)
		}
	}

	// Flow conservation (thesis: at every vertex except a flow's own
	// terminals), source emission = g_i, sink absorption = g_i.
	for i := range flows {
		inOf := make(map[cdg.VertexID][]edge)
		outOf := make(map[cdg.VertexID][]edge)
		for _, e := range edgesOf[i] {
			outOf[e.u] = append(outOf[e.u], e)
			inOf[e.v] = append(inOf[e.v], e)
		}
		for v := 0; v < nCDG; v++ {
			w := cdg.VertexID(v)
			if len(inOf[w]) == 0 && len(outOf[w]) == 0 {
				continue
			}
			var terms []lp.Term
			for _, e := range inOf[w] {
				terms = append(terms, lp.Term{Var: fVar[i][e], Coef: 1})
			}
			for _, e := range outOf[w] {
				terms = append(terms, lp.Term{Var: fVar[i][e], Coef: -1})
			}
			p.AddConstraint(terms, lp.EQ, 0)
		}
		var srcTerms, snkTerms []lp.Term
		for _, e := range outOf[src] {
			srcTerms = append(srcTerms, lp.Term{Var: fVar[i][e], Coef: 1})
		}
		srcTerms = append(srcTerms, lp.Term{Var: gVar[i], Coef: -1})
		p.AddConstraint(srcTerms, lp.EQ, 0)
		for _, e := range inOf[snk] {
			snkTerms = append(snkTerms, lp.Term{Var: fVar[i][e], Coef: 1})
		}
		snkTerms = append(snkTerms, lp.Term{Var: gVar[i], Coef: -1})
		p.AddConstraint(snkTerms, lp.EQ, 0)

		// Unsplittable flow: f <= d*b, and at most one outgoing b per
		// vertex.
		for _, e := range edgesOf[i] {
			p.AddConstraint([]lp.Term{
				{Var: fVar[i][e], Coef: 1},
				{Var: bVar[i][e], Coef: -flows[i].Demand},
			}, lp.LE, 0)
		}
		for _, es := range outOf {
			var terms []lp.Term
			for _, e := range es {
				terms = append(terms, lp.Term{Var: bVar[i][e], Coef: 1})
			}
			p.AddConstraint(terms, lp.LE, 1)
		}

		// Hop budget: a G_A path with h channels uses h+1 edges.
		min := minimalHops(&hopScratch{}, topo, flows[i].Src, flows[i].Dst)
		if min < 0 {
			return nil, fmt.Errorf("route: flow %s endpoints disconnected", flows[i].Name)
		}
		var hopTerms []lp.Term
		for _, e := range edgesOf[i] {
			hopTerms = append(hopTerms, lp.Term{Var: bVar[i][e], Coef: 1})
		}
		p.AddConstraint(hopTerms, lp.LE, float64(min+hopSlack+1))
	}

	// Channel load rows: the load of a physical channel is the total flow
	// entering any of its (channel, vc) vertices.
	loadTerms := make(map[topology.ChannelID][]lp.Term)
	for i := range flows {
		for _, e := range edgesOf[i] {
			if e.v >= src {
				continue // a terminal
			}
			ch, _ := dag.ChannelVC(e.v)
			loadTerms[ch] = append(loadTerms[ch], lp.Term{Var: fVar[i][e], Coef: 1})
		}
	}

	// Ascending channel order keeps the problem — and therefore the chosen
	// optimal vertex — deterministic; map order would randomize both.
	loadChans := make([]topology.ChannelID, 0, len(loadTerms))
	for ch := range loadTerms {
		loadChans = append(loadChans, ch)
	}
	sort.Slice(loadChans, func(a, b int) bool { return loadChans[a] < loadChans[b] })

	switch obj {
	case MinMCL:
		u := p.AddVar("U", 0, lp.Inf, 1)
		for _, ch := range loadChans {
			row := append(append([]lp.Term(nil), loadTerms[ch]...), lp.Term{Var: u, Coef: -1})
			p.AddConstraint(row, lp.LE, 0)
		}
	case MaxThroughput:
		for _, ch := range loadChans {
			p.AddConstraint(loadTerms[ch], lp.LE, g.Capacity())
		}
	case MaxMinFraction:
		t := p.AddVar("T", 0, 1, -1) // max T as min -T
		for i, f := range flows {
			// g_i >= T d_i, written as T d_i - g_i <= 0.
			p.AddConstraint([]lp.Term{
				{Var: gVar[i], Coef: -1},
				{Var: t, Coef: f.Demand},
			}, lp.LE, 0)
		}
		for _, ch := range loadChans {
			p.AddConstraint(loadTerms[ch], lp.LE, g.Capacity())
		}
	}

	sol, err := lp.SolveMILPContext(context.Background(), p, opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal && sol.Status != lp.Feasible {
		return nil, fmt.Errorf("route: edge MILP returned %v", sol.Status)
	}

	res := &EdgeMILPResult{
		Set:       &Set{Topo: topo},
		Objective: sol.Objective,
		Delivered: make([]float64, len(flows)),
		Nodes:     sol.Nodes,
	}
	if obj != MinMCL {
		res.Objective = -sol.Objective // the solver minimized the negation
	}
	res.Set.Routes = make([]Route, len(flows))
	for i, f := range flows {
		res.Delivered[i] = sol.Value(gVar[i])
		if res.Delivered[i] <= 1e-9 {
			// Unrouted flow (possible under throughput objectives):
			// leave an empty route.
			res.Set.Routes[i] = Route{Flow: f}
			continue
		}
		// Walk the chosen path from the source terminal following
		// positive-flow edges.
		var path flowgraph.Path
		at := src
		for at != snk {
			next := cdg.VertexID(-1)
			for _, e := range edgesOf[i] {
				if e.u == at && sol.Value(fVar[i][e]) > 1e-6 {
					next = e.v
					break
				}
			}
			if next < 0 {
				return nil, fmt.Errorf("route: flow %s path extraction stuck at vertex %d", f.Name, at)
			}
			if next < src {
				path = append(path, next)
			}
			at = next
			if len(path) > topo.NumChannels() {
				return nil, fmt.Errorf("route: flow %s path extraction looped", f.Name)
			}
		}
		res.Set.Routes[i] = routeFromPath(g, i, path)
	}
	return res, nil
}
