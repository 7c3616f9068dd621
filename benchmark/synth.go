package main

import (
	"context"
	"fmt"
	"sort"

	"repro/bsor"
	"repro/internal/cdg"
	"repro/internal/experiments"
	"repro/internal/flowgraph"
	"repro/internal/lp"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// synth-milp: the library path with one caller. Every cell of the Table
// 6.1 grid on mesh 8x8 — six thesis workloads x three breakers — is
// synthesised with BSOR-MILP under the fast budget and then certified:
// the paper's core product, time to a certified min-MCL route set.

// nfBreaker is the negative-first(WN) column, whose synthetic-workload
// cells are the multi-second ones.
const nfBreaker = "negative-first(WN)"

var synthBreakers = []string{"N-last", "W-first", nfBreaker}

// synthCell is one op: a workload under one breaker.
type synthCell struct {
	workload, breaker string
}

func (c synthCell) key() string { return c.workload + "/" + c.breaker }

func (c synthCell) spec() bsor.Spec {
	return bsor.Spec{Topo: bsor.Mesh(8, 8), Workload: c.workload,
		Algorithm: "BSOR-MILP", Breakers: []string{c.breaker}}
}

// cellLayer names the per-cell layer rows of the three multi-second
// cells.
var cellLayer = map[string]string{
	"transpose/" + nfBreaker:      "route.cell_transpose_nf_ms",
	"shuffle/" + nfBreaker:        "route.cell_shuffle_nf_ms",
	"bit-complement/" + nfBreaker: "route.cell_bitcomp_nf_ms",
}

// synthetic reports whether w is one of the bit-permutation patterns,
// whose MILP cells take from a fraction of a second to several.
func synthetic(w string) bool {
	return w == "transpose" || w == "bit-complement" || w == "shuffle"
}

// synthCells lists the op list. The smoke scale keeps the cells that
// solve in milliseconds: the profiled applications.
func synthCells(short bool) []synthCell {
	var cells []synthCell
	for _, w := range experiments.WorkloadNames() {
		if short && synthetic(w) {
			continue
		}
		for _, b := range synthBreakers {
			cells = append(cells, synthCell{w, b})
		}
	}
	return cells
}

type synthInst struct {
	cfg   config
	cells []synthCell
	opts  []bsor.Option
	// answers holds the last pass's MCL and winning breaker per cell, for
	// the replay to match.
	answers []synthAnswer
}

type synthAnswer struct {
	mcl     float64
	breaker string
}

func setupSynth(cfg config, tr *tracer) (instance, error) {
	s := &synthInst{cfg: cfg, cells: synthCells(cfg.short),
		opts: []bsor.Option{bsor.WithMILPBudget(bsor.FastMILPBudget()), bsor.WithWorkers(cfg.clients)}}
	s.answers = make([]synthAnswer, len(s.cells))
	// Warm-up: the millisecond cells once, so the measured pass does not
	// pay first-call costs (page faults, lazy tables) on its first ops.
	for _, c := range s.cells {
		if !synthetic(c.workload) {
			if _, err := bsor.Synthesize(context.Background(), c.spec(), s.opts...); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *synthInst) prepare() error { return nil }
func (s *synthInst) close()         {}

func (s *synthInst) pass(tr *tracer) passStats {
	ctx := context.Background()
	var st passStats
	for i, c := range s.cells {
		st.attempted++
		op := tr.begin("op.cell", noSpan, i)
		id := tr.begin("bsor.synthesize", op, i)
		rs, err := bsor.Synthesize(ctx, c.spec(), s.opts...)
		tr.end(id)
		if err == nil {
			id = tr.begin("op.certify", op, i)
			_, err = rs.Certify()
			tr.end(id)
		}
		tr.end(op)
		if err != nil {
			st.failed++
			continue
		}
		s.answers[i] = synthAnswer{rs.MCL(), rs.Breaker()}
		st.mclSum += rs.MCL()
		got := fmt.Sprintf("%g %s", rs.MCL(), rs.Breaker())
		if !s.cfg.golden.check(s.cfg.scale()+"/synth-milp/"+c.key(), got) {
			st.failed++
		}
	}
	return st
}

func (s *synthInst) inspect(tr *tracer, tracedFrom int, traced passStats, lm layers) passStats {
	ctx := context.Background()
	var st passStats
	lm["route.mcl_sum"] = traced.mclSum / float64(traced.passes)
	spans := tr.snapshot()
	for _, sp := range spans[tracedFrom:] {
		if sp.Name == "op.cell" {
			if row, ok := cellLayer[s.cells[sp.Op].key()]; ok {
				lm[row] = ms(sp.dur()) // the last traced pass's
			}
		}
	}

	coll := metrics.New()
	r := newSynthReplayer(tr, coll, lm)
	for i, c := range s.cells {
		st.attempted++
		if err := r.replay(ctx, i, c.spec(), s.answers[i].mcl, s.answers[i].breaker); err != nil {
			logf("replay %s: %v", c.key(), err)
			st.failed++
		}
		if _, ok := cellLayer[c.key()]; ok {
			st.attempted++
			if err := s.master(ctx, tr, i, c, lm); err != nil {
				logf("master %s: %v", c.key(), err)
				st.failed++
			}
		}
	}
	lm["lp.pivots"] = float64(coll.Counter("lp_simplex_pivots_total").Value())
	lm["lp.bb_nodes"] = float64(coll.Counter("lp_bb_nodes_total").Value())
	lm["lp.refactorizations"] = float64(coll.Counter("lp_refactorizations_total").Value())
	lm["route.paths_kept"] = float64(coll.Counter("route_paths_kept_total").Value())
	lm["route.paths_deduped"] = float64(coll.Counter("route_paths_deduped_total").Value())
	return st
}

// master times the LP layer on its own for one multi-second cell. The
// selector hides its restricted masters, so the benchmark builds the
// first one itself — candidates from EnumerateAllContext at the fast
// budget, the path formulation documented at
// route.MILPSelector.solveRestricted — and solves it twice: the root
// relaxation with lp.Solve, then branch and bound at the selector's
// MaxNodes and Gap.
func (s *synthInst) master(ctx context.Context, tr *tracer, op int, c synthCell, lm layers) error {
	budget := bsor.FastMILPBudget()
	mesh := topology.NewMesh(8, 8)
	flows, err := experiments.WorkloadFlows(mesh, c.workload, 0)
	if err != nil {
		return err
	}
	breaker, err := experiments.BreakerByName(c.breaker)
	if err != nil {
		return err
	}
	maxDemand := 0.0
	for _, f := range flows {
		maxDemand = max(maxDemand, f.Demand)
	}
	g := flowgraph.New(breaker.Break(cdg.NewFull(mesh, 2)), flows, 4*maxDemand)

	budgets := make([]int, len(flows))
	for i, f := range flows {
		sx, sy := mesh.XY(f.Src)
		dx, dy := mesh.XY(f.Dst)
		budgets[i] = abs(sx-dx) + abs(sy-dy) + budget.HopSlack
	}
	id := tr.begin("flowgraph.enumerate", noSpan, op)
	candidates, err := g.EnumerateAllContext(ctx, budgets, budget.MaxPathsPerFlow, s.cfg.clients)
	tr.end(id)
	if err != nil {
		return err
	}

	p := lp.NewProblem()
	u := p.AddVar("U", maxDemand, lp.Inf, 1)
	chTerms := map[topology.ChannelID][]lp.Term{}
	chFlows := map[topology.ChannelID]map[int]bool{}
	for i, paths := range candidates {
		lm["flowgraph.paths"] += float64(len(paths))
		choose := make([]lp.Term, 0, len(paths))
		for pi, path := range paths {
			v := p.AddBinary(fmt.Sprintf("x[%d,%d]", i, pi), 0)
			choose = append(choose, lp.Term{Var: v, Coef: 1})
			touched := map[topology.ChannelID]bool{}
			for _, ch := range g.Channels(path) {
				if !touched[ch] {
					touched[ch] = true
					chTerms[ch] = append(chTerms[ch], lp.Term{Var: v, Coef: flows[i].Demand})
					if chFlows[ch] == nil {
						chFlows[ch] = map[int]bool{}
					}
					chFlows[ch][i] = true
				}
			}
		}
		p.AddConstraint(choose, lp.EQ, 1)
	}
	channels := make([]topology.ChannelID, 0, len(chTerms))
	for ch := range chTerms {
		if len(chFlows[ch]) > 1 { // a channel one flow alone can touch never exceeds U
			channels = append(channels, ch)
		}
	}
	sort.Slice(channels, func(a, b int) bool { return channels[a] < channels[b] })
	for _, ch := range channels {
		p.AddConstraint(append(chTerms[ch], lp.Term{Var: u, Coef: -1}), lp.LE, 0)
	}
	lm["lp.rows"] += float64(p.NumConstraints())
	lm["lp.cols"] += float64(p.NumVars())

	id = tr.begin("lp.root", noSpan, op)
	root, err := lp.Solve(p)
	tr.end(id)
	if err != nil {
		return err
	}
	if root.Status != lp.Optimal {
		return fmt.Errorf("root relaxation is %v", root.Status)
	}
	id = tr.begin("lp.milp", noSpan, op)
	sol, err := lp.SolveMILPContext(ctx, p, lp.MILPOptions{MaxNodes: budget.MaxNodes, Gap: budget.Gap})
	tr.end(id)
	if err != nil {
		return err
	}
	// A truncated search may end without an incumbent; when it has one it
	// cannot beat the relaxation.
	if (sol.Status == lp.Optimal || sol.Status == lp.Feasible) && sol.Objective < root.Objective-1e-6 {
		return fmt.Errorf("MILP objective %g below its relaxation %g", sol.Objective, root.Objective)
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
