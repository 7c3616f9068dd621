package lp

import (
	"context"
	"math"
)

// MILPOptions tunes the branch-and-bound search.
type MILPOptions struct {
	// MaxNodes truncates the search after this many explored nodes; the
	// best incumbent found so far is returned with Status Feasible. This
	// mirrors the thesis' suggestion (§7.3) of using the ILP solver as a
	// heuristic on large instances by limiting its effort. Zero means the
	// default of 50000.
	MaxNodes int
	// Gap prunes nodes whose LP bound is within Gap (absolute) of the
	// incumbent, accepting near-optimal answers faster. Zero means exact.
	Gap float64
	// WarmStart, when non-nil, supplies a known feasible point (one value
	// per variable) used as the initial incumbent, so bound pruning is
	// effective from the first node, and as the point the root's crash
	// basis is built around. An infeasible warm start is no incumbent; it
	// only seeds the crash, which puts artificials where it is violated.
	WarmStart []float64
	// Instruments receives pivot/refactorization/node counts from the
	// solve. The zero value disables all of them.
	Instruments Instruments
}

func (o MILPOptions) withDefaults() MILPOptions {
	if o.MaxNodes == 0 {
		o.MaxNodes = 50000
	}
	return o
}

// intTol is the integrality tolerance: a value within it of an integer
// counts as integral.
const intTol = 1e-6

type bbNode struct {
	lb, ub []float64
	bound  float64 // parent LP objective
	depth  int
	// warm is the parent's optimal basis; the child re-solve starts from
	// it (dual-simplex restoration) instead of a crash basis.
	warm *basisState
}

// nodeSolver solves one node's LP relaxation under the node's bounds,
// optionally from the parent's basis, and returns the basis it ended on
// (nil when it keeps none); a solve without a usable basis crashes from
// point (see MILPOptions.WarmStart and branchAndBound). boundTightener
// propagates a branching decision on variable branch through lb/ub in
// place and reports false when that proves the child empty. Production
// always passes the sparse solver and the propagator; package tests
// substitute the dense tableau and no propagation to cross-check both.
type (
	nodeSolver     func(lb, ub []float64, warm *basisState, point []float64) (*Solution, *basisState, error)
	boundTightener func(lb, ub []float64, branch int) bool
)

// SolveMILPContext solves p respecting its integer variable markers using
// LP-relaxation branch and bound with most-fractional branching and
// depth-first exploration (better-bound node first among siblings). The
// branch-and-bound loop polls ctx between nodes and returns ctx.Err()
// when it fires, discarding any incumbent (a cancelled solve has no
// answer, partial or otherwise — callers that want best-effort truncation
// use MaxNodes instead).
func SolveMILPContext(ctx context.Context, p *Problem, opts MILPOptions) (*Solution, error) {
	intVars := p.integerVars()
	if len(intVars) == 0 {
		return Solve(p)
	}
	// One solver instance (constraint storage and scratch) serves every
	// node, warm-started from the parent basis when the node carries one.
	sp := newSparseSolver(p)
	sp.inst = opts.Instruments
	return branchAndBound(ctx, p, opts, intVars, sp.solveLP, newPropagator(p).propagate)
}

// integerVars lists the indices of p's integer-marked variables.
func (p *Problem) integerVars() []int {
	var out []int
	for j, v := range p.vars {
		if v.integer {
			out = append(out, j)
		}
	}
	return out
}

// branchAndBound is the search behind SolveMILPContext over the integer
// variables intVars (non-empty), with the relaxation solver and the bound
// propagation supplied by the caller.
func branchAndBound(ctx context.Context, p *Problem, opts MILPOptions, intVars []int,
	solveNode nodeSolver, tighten boundTightener) (*Solution, error) {
	opts = opts.withDefaults()

	lb0 := make([]float64, len(p.vars))
	ub0 := make([]float64, len(p.vars))
	for j, v := range p.vars {
		lb0[j], ub0[j] = v.lb, v.ub
	}

	var (
		best      *Solution
		bestObj   = math.Inf(1)
		nodes     int
		truncated bool
	)
	// Flush the explored-node count on every exit path, including
	// cancellation — the nodes were genuinely explored either way.
	defer func() { opts.Instruments.Nodes.Add(int64(nodes)) }()
	// point is what a node solve without a parent basis (the root, a failed
	// warm start) crashes from: the warm start until the search finds an
	// incumbent, then the incumbent, clamped into the node's bounds.
	var point []float64
	if len(opts.WarmStart) == len(p.vars) {
		point = opts.WarmStart
		if x, obj, ok := p.checkFeasible(opts.WarmStart, intTol); ok {
			best = &Solution{Status: Feasible, Objective: obj, X: x}
			bestObj = obj
		}
	}
	stack := []bbNode{{lb: lb0, ub: ub0, bound: math.Inf(-1)}}

	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if nodes >= opts.MaxNodes {
			truncated = true
			break
		}
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if node.bound >= bestObj-opts.Gap-1e-12 {
			continue // pruned by bound established when pushed
		}
		nodes++

		sol, state, err := solveNode(node.lb, node.ub, node.warm, point)
		if err != nil {
			return nil, err
		}
		switch sol.Status {
		case Infeasible:
			continue
		case Unbounded:
			// With all integer variables bounded this can only occur at
			// the root via continuous variables; report it.
			if nodes == 1 {
				return &Solution{Status: Unbounded, Nodes: nodes}, nil
			}
			continue
		}
		obj := sol.Objective
		if obj >= bestObj-opts.Gap-1e-12 {
			continue
		}

		// Find the most fractional integer variable.
		branch, fracDist := -1, intTol
		for _, j := range intVars {
			f := sol.X[j] - math.Floor(sol.X[j])
			d := math.Min(f, 1-f)
			if d > fracDist {
				fracDist = d
				branch = j
			}
		}
		if branch < 0 {
			// Integral: new incumbent. Round to exact integers.
			x := make([]float64, len(sol.X))
			copy(x, sol.X)
			for _, j := range intVars {
				x[j] = math.Round(x[j])
			}
			best = &Solution{Status: Feasible, Objective: sol.Objective, X: x}
			bestObj, point = obj, x
			continue
		}

		xv := sol.X[branch]
		mkChild := func(toUB bool) (bbNode, bool) {
			lb := append([]float64(nil), node.lb...)
			ub := append([]float64(nil), node.ub...)
			if toUB {
				ub[branch] = math.Floor(xv)
			} else {
				lb[branch] = math.Ceil(xv)
			}
			if !tighten(lb, ub, branch) {
				return bbNode{}, false // child proven empty by propagation
			}
			return bbNode{lb: lb, ub: ub, bound: obj, depth: node.depth + 1, warm: state}, true
		}
		var children []bbNode
		if c, ok := mkChild(true); ok {
			children = append(children, c)
		}
		if c, ok := mkChild(false); ok {
			children = append(children, c)
		}
		// Depth-first dive order: the stack pops the last-pushed child, so
		// the child to explore first goes last. For 0/1 variables always
		// dive toward 1: in the set-partitioning structures this solver
		// mostly sees (choose one path per flow), fixing a variable to 1
		// resolves its whole equality row, so the dive reaches an
		// incumbent in one pass. General integers dive toward the
		// relaxation's preference.
		diveUp := true
		if p.vars[branch].ub > 1 || p.vars[branch].lb < 0 {
			diveUp = xv-math.Floor(xv) > 0.5
		}
		if len(children) == 2 && !diveUp {
			children[0], children[1] = children[1], children[0]
		}
		stack = append(stack, children...)
	}

	if best == nil {
		// No integral solution found. When the search was truncated this is
		// not a proof of infeasibility, but the status vocabulary has no
		// separate word for it; callers that care (route's restricted
		// masters warm-start an incumbent precisely so a truncated search
		// still has an answer) can distinguish via Nodes >= MaxNodes.
		return &Solution{Status: Infeasible, Nodes: nodes}, nil
	}
	best.Nodes = nodes
	if !truncated {
		best.Status = Optimal
	}
	return best, nil
}

// checkFeasible verifies a candidate point against bounds, integrality,
// and every constraint; returns a defensive copy and its objective value.
func (p *Problem) checkFeasible(x []float64, intTol float64) ([]float64, float64, bool) {
	const tol = 1e-6
	if len(x) != len(p.vars) {
		return nil, 0, false
	}
	for j, v := range p.vars {
		if x[j] < v.lb-tol || x[j] > v.ub+tol {
			return nil, 0, false
		}
		if v.integer && math.Abs(x[j]-math.Round(x[j])) > intTol {
			return nil, 0, false
		}
	}
	for _, c := range p.cons {
		lhs := 0.0
		for _, t := range c.terms {
			lhs += t.Coef * x[t.Var]
		}
		switch c.sense {
		case LE:
			if lhs > c.rhs+tol {
				return nil, 0, false
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > tol {
				return nil, 0, false
			}
		}
	}
	out := make([]float64, len(x))
	copy(out, x)
	obj := 0.0
	for j, v := range p.vars {
		if v.integer {
			out[j] = math.Round(out[j])
		}
		obj += v.cost * out[j]
	}
	return out, obj, true
}
