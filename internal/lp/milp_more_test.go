package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestMILPGeneralIntegers(t *testing.T) {
	// max 2x + 3y s.t. 4x + 5y <= 23, x,y integer in [1, 5], solved as
	// min -2x - 3y. LP relax: y = (23-4x)/5; best integer point: x=2, y=3
	// -> -13.
	p := NewProblem()
	x := addInt(p, 1, 5, -2)
	y := addInt(p, 1, 5, -3)
	p.AddConstraint([]Term{{x, 4}, {y, 5}}, LE, 23)
	sol, err := SolveMILPContext(context.Background(), p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, -13, 1e-6) {
		t.Fatalf("got %v %g, want optimal -13", sol.Status, sol.Objective)
	}
	for _, v := range []int{x, y} {
		if f := sol.Value(v) - math.Round(sol.Value(v)); math.Abs(f) > 1e-6 {
			t.Errorf("non-integral value %g", sol.Value(v))
		}
	}
}

// addInt adds a general integer column with bounds [lb, ub]. Production
// builds binaries only (AddBinary); branch and bound takes any integer.
func addInt(p *Problem, lb, ub, cost float64) int {
	v := p.AddVar("", lb, ub, cost)
	p.vars[v].integer = true
	return v
}

func TestMILPOnPureLPDelegates(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 0, 10, -1)
	p.AddConstraint([]Term{{x, 1}}, LE, 7)
	sol, err := SolveMILPContext(context.Background(), p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Value(x), 7, 1e-9) {
		t.Fatalf("pure LP through SolveMILP broken: %v %g", sol.Status, sol.Value(x))
	}
}

func TestMILPGapAcceptsNearOptimal(t *testing.T) {
	// Knapsack where optimum is 20 and a 19-valued incumbent is found
	// first under the dive order; a gap of 2 allows stopping early but
	// the result must stay within gap of optimal.
	rng := rand.New(rand.NewSource(3))
	p := NewProblem()
	var terms []Term
	values := make([]float64, 14)
	for i := range values {
		values[i] = float64(1 + rng.Intn(9))
		v := p.AddBinary("", -values[i]) // minimize negative value
		terms = append(terms, Term{v, float64(1 + rng.Intn(5))})
	}
	p.AddConstraint(terms, LE, 12)

	exact, err := SolveMILPContext(context.Background(), p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gapped, err := SolveMILPContext(context.Background(), p, MILPOptions{Gap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if gapped.Objective > exact.Objective+2+1e-6 {
		t.Errorf("gap solution %g worse than optimal %g by more than the gap",
			gapped.Objective, exact.Objective)
	}
	if gapped.Nodes > exact.Nodes {
		t.Errorf("gap did not reduce nodes: %d vs %d", gapped.Nodes, exact.Nodes)
	}
}

// TestMILPMaximizeSense pins a maximization written the one way the solver
// takes it: the minimization of the negated values.
func TestMILPMaximizeSense(t *testing.T) {
	p := NewProblem()
	x := p.AddBinary("x", -5)
	y := p.AddBinary("y", -4)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 1)
	sol, err := SolveMILPContext(context.Background(), p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, -5, 1e-6) || !approx(sol.Value(x), 1, 1e-6) {
		t.Fatalf("maximize picked wrong item: %v %g", sol.X, sol.Objective)
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x + y with x in [-5, 5], y in [-3, 3], x + y >= -6.
	p := NewProblem()
	x := p.AddVar("x", -5, 5, 1)
	y := p.AddVar("y", -3, 3, 1)
	addGE(p, []Term{{x, 1}, {y, 1}}, -6)
	sol := mustSolve(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, -6, 1e-6) {
		t.Fatalf("got %v %g, want optimal -6", sol.Status, sol.Objective)
	}
}

func TestVarNameAndCounts(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("alpha", 0, 1, 0)
	p.AddBinary("beta", 1)
	p.AddConstraint([]Term{{x, 1}}, LE, 1)
	if p.NumVars() != 2 || p.NumConstraints() != 1 {
		t.Errorf("counts: %d vars, %d cons", p.NumVars(), p.NumConstraints())
	}
}

func BenchmarkSimplexMedium(b *testing.B) {
	// A 60-row, 120-column random feasible LP.
	rng := rand.New(rand.NewSource(7))
	build := func() *Problem {
		p := NewProblem()
		for j := 0; j < 120; j++ {
			p.AddVar("", 0, 10, rng.Float64()*4-2)
		}
		for i := 0; i < 60; i++ {
			var terms []Term
			for j := 0; j < 120; j++ {
				if rng.Intn(4) == 0 {
					terms = append(terms, Term{j, rng.Float64() * 3})
				}
			}
			p.AddConstraint(terms, LE, 50+rng.Float64()*50)
		}
		return p
	}
	p := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMILPKnapsack20(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	p := NewProblem()
	var terms []Term
	for j := 0; j < 20; j++ {
		v := p.AddBinary("", -(1 + rng.Float64()*9)) // maximize the value
		terms = append(terms, Term{v, 1 + rng.Float64()*4})
	}
	p.AddConstraint(terms, LE, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveMILPContext(context.Background(), p, MILPOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
