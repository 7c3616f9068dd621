package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// buildMaster mimics the BSOR restricted master: nf choose-one EQ rows over
// np binary path columns each, nc channel-load LE rows coupling random
// subsets of columns to a min-max variable U — the massively degenerate
// structure the anti-stalling machinery exists for.
func buildMaster(nf, np, nc int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem()
	u := p.AddVar("U", 0, Inf, 1)
	type col struct {
		v    int
		rows []int
	}
	var cols []col
	for f := 0; f < nf; f++ {
		var choose []Term
		for k := 0; k < np; k++ {
			v := p.AddBinary("", 0)
			choose = append(choose, Term{v, 1})
			rows := rng.Perm(nc)[:nc/3]
			cols = append(cols, col{v, rows})
		}
		p.AddConstraint(choose, EQ, 1)
	}
	chTerms := make([][]Term, nc)
	for _, c := range cols {
		for _, r := range c.rows {
			chTerms[r] = append(chTerms[r], Term{c.v, 25})
		}
	}
	for _, terms := range chTerms {
		if len(terms) == 0 {
			continue
		}
		row := append(append([]Term(nil), terms...), Term{u, -1})
		p.AddConstraint(row, LE, 0)
	}
	return p
}

// randomLP builds a bounded random LP with mixed row kinds (addRow) and,
// half the time, negated costs; integer markers are added when milp is set.
func randomLP(rng *rand.Rand, milp bool) *Problem {
	p := NewProblem()
	nv := 2 + rng.Intn(6)
	nc := 1 + rng.Intn(6)
	for j := 0; j < nv; j++ {
		cost := float64(rng.Intn(21) - 10)
		if milp && rng.Intn(2) == 0 {
			p.AddBinary("", cost)
		} else {
			p.AddVar("", 0, float64(1+rng.Intn(9)), cost)
		}
	}
	maximize := rng.Intn(2) == 0
	for i := 0; i < nc; i++ {
		var terms []Term
		for j := 0; j < nv; j++ {
			if c := rng.Intn(7) - 3; c != 0 {
				terms = append(terms, Term{j, float64(c)})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{0, 1}}
		}
		kind := rng.Intn(3)
		rhs := float64(rng.Intn(21) - 8)
		addRow(p, terms, kind, rhs)
	}
	if maximize {
		negateCosts(p)
	}
	return p
}

// solveMILPDense is the seed MILP stack the sparse one is checked against:
// the production branch and bound over dense-tableau relaxations, every
// node re-solved from scratch, no bound propagation.
func solveMILPDense(p *Problem, opts MILPOptions) (*Solution, error) {
	intVars := p.integerVars()
	if len(intVars) == 0 {
		return solveDense(p)
	}
	solveNode := func(lb, ub []float64, _ *basisState, _ []float64) (*Solution, *basisState, error) {
		sol, err := solveLP(p, lb, ub)
		return sol, nil, err
	}
	noTighten := func(_, _ []float64, _ int) bool { return true }
	return branchAndBound(context.Background(), p, opts, intVars, solveNode, noTighten)
}

// TestSparseMatchesDenseLP cross-checks the sparse revised simplex against
// the dense tableau on random LPs: statuses agree, and optimal
// objectives agree to tolerance.
func TestSparseMatchesDenseLP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		p := randomLP(rng, false)
		ds, derr := solveDense(p)
		ss, serr := Solve(p)
		if derr != nil || serr != nil {
			t.Fatalf("trial %d: dense err %v, sparse err %v", trial, derr, serr)
		}
		if ds.Status != ss.Status {
			t.Fatalf("trial %d: dense %v, sparse %v", trial, ds.Status, ss.Status)
		}
		if ds.Status != Optimal {
			continue
		}
		if math.Abs(ds.Objective-ss.Objective) > 1e-5*(1+math.Abs(ds.Objective)) {
			t.Fatalf("trial %d: dense obj %g, sparse obj %g", trial, ds.Objective, ss.Objective)
		}
	}
}

// TestSparseMatchesDenseMILP cross-checks full branch and bound: both
// engines must report the same status and, when optimal, the same
// objective — the sparse side additionally exercises bound propagation and
// warm-started children.
func TestSparseMatchesDenseMILP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		p := randomLP(rng, true)
		ds, derr := solveMILPDense(p, MILPOptions{})
		ss, serr := SolveMILPContext(context.Background(), p, MILPOptions{})
		if derr != nil || serr != nil {
			t.Fatalf("trial %d: dense err %v, sparse err %v", trial, derr, serr)
		}
		if ds.Status != ss.Status {
			t.Fatalf("trial %d: dense %v, sparse %v", trial, ds.Status, ss.Status)
		}
		if ds.Status != Optimal {
			continue
		}
		if math.Abs(ds.Objective-ss.Objective) > 1e-5*(1+math.Abs(ds.Objective)) {
			t.Fatalf("trial %d: dense obj %g, sparse obj %g", trial, ds.Objective, ss.Objective)
		}
		// The sparse solution must satisfy the problem it claims to solve.
		if _, _, ok := p.checkFeasible(ss.X, 1e-6); !ok {
			t.Fatalf("trial %d: sparse solution infeasible", trial)
		}
	}
}

// TestSparseWarmStartedChildren drives a master whose branch-and-bound
// search necessarily descends several levels, so children are solved from
// parent bases (and from cold fallbacks when the dual repair gives up):
// the answer must match the dense engine's exactly.
func TestSparseWarmStartedChildren(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := buildMaster(6, 3, 16, seed)
		ds, err := solveMILPDense(p, MILPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := SolveMILPContext(context.Background(), p, MILPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ds.Status != ss.Status {
			t.Fatalf("seed %d: dense %v, sparse %v", seed, ds.Status, ss.Status)
		}
		if ds.Status == Optimal && math.Abs(ds.Objective-ss.Objective) > 1e-5*(1+math.Abs(ds.Objective)) {
			t.Fatalf("seed %d: dense obj %g, sparse obj %g", seed, ds.Objective, ss.Objective)
		}
		if _, _, ok := p.checkFeasible(ss.X, 1e-6); !ok {
			t.Fatalf("seed %d: sparse incumbent infeasible", seed)
		}
	}
}

// TestPropagationFixesSiblings pins the choose-one propagation: fixing one
// binary of an equality row to 1 must let branch and bound prune without
// ever exploring the siblings' subtrees (observable as a tiny node count).
func TestPropagationFixesSiblings(t *testing.T) {
	p := NewProblem()
	var terms []Term
	for j := 0; j < 10; j++ {
		v := p.AddBinary("", float64(j))
		terms = append(terms, Term{v, 1})
	}
	p.AddConstraint(terms, EQ, 1)
	sol, err := SolveMILPContext(context.Background(), p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-0) > 1e-9 {
		t.Fatalf("got %v obj %g, want optimal 0", sol.Status, sol.Objective)
	}
}

// TestSparseSolverReuseAcrossBounds exercises the per-node bound override
// path of one solver instance directly.
func TestSparseSolverReuseAcrossBounds(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 0, 4, -1)
	y := p.AddVar("y", 0, 4, -1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 5)
	s := newSparseSolver(p)
	sol, state, err := s.solveLP(nil, nil, nil, nil)
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective+5) > 1e-6 {
		t.Fatalf("root: %v %v obj=%g", sol.Status, err, sol.Objective)
	}
	// Tighten x and warm start from the root basis.
	lb := []float64{0, 0}
	ub := []float64{1, 4}
	sol2, _, err := s.solveLP(lb, ub, state, nil)
	if err != nil || sol2.Status != Optimal || math.Abs(sol2.Objective+5) > 1e-6 {
		t.Fatalf("child: %v %v obj=%g", sol2.Status, err, sol2.Objective)
	}
	// Conflicting bounds are infeasible without a solve.
	sol3, _, err := s.solveLP([]float64{3, 0}, []float64{1, 4}, state, nil)
	if err != nil || sol3.Status != Infeasible {
		t.Fatalf("conflict: %v %v", sol3.Status, err)
	}
}
