package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestLPTwoVarMax(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic Dantzig),
	// solved as min -3x - 5y. Optimum: x=2, y=6, obj=-36.
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, -3)
	y := p.AddVar("y", 0, Inf, -5)
	p.AddConstraint([]Term{{x, 1}}, LE, 4)
	p.AddConstraint([]Term{{y, 2}}, LE, 12)
	p.AddConstraint([]Term{{x, 3}, {y, 2}}, LE, 18)
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -36, 1e-6) {
		t.Errorf("objective = %g, want -36", sol.Objective)
	}
	if !approx(sol.Value(x), 2, 1e-6) || !approx(sol.Value(y), 6, 1e-6) {
		t.Errorf("x,y = %g,%g want 2,6", sol.Value(x), sol.Value(y))
	}
}

func TestLPMinWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10 (as -x - y <= -10), x >= 2, y >= 3.
	// Optimum x=7,y=3: 23.
	p := NewProblem()
	x := p.AddVar("x", 2, Inf, 2)
	y := p.AddVar("y", 3, Inf, 3)
	addGE(p, []Term{{x, 1}, {y, 1}}, 10)
	sol := mustSolve(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, 23, 1e-6) {
		t.Fatalf("got %v obj %g, want optimal 23", sol.Status, sol.Objective)
	}
}

func TestLPEquality(t *testing.T) {
	// min x + y s.t. x + 2y == 4, x - y == 1. Unique point (2, 1), obj 3.
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 0, Inf, 1)
	p.AddConstraint([]Term{{x, 1}, {y, 2}}, EQ, 4)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, EQ, 1)
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Value(x), 2, 1e-6) || !approx(sol.Value(y), 1, 1e-6) {
		t.Errorf("point = (%g,%g), want (2,1)", sol.Value(x), sol.Value(y))
	}
}

func TestLPInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, 1)
	addGE(p, []Term{{x, 1}}, 5)
	p.AddConstraint([]Term{{x, 1}}, LE, 3)
	sol := mustSolve(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, -1) // max x
	y := p.AddVar("y", 0, Inf, 0)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, LE, 1)
	sol := mustSolve(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestLPBoundedVariablesOnly(t *testing.T) {
	// No constraints at all: optimum sits at variable bounds.
	p := NewProblem()
	x := p.AddVar("x", -1, 2, 1)  // min + positive cost -> lb
	y := p.AddVar("y", 0, 5, -2)  // min + negative cost -> ub
	z := p.AddVar("z", 3, 3, 100) // fixed
	sol := mustSolve(t, p)
	if !approx(sol.Value(x), -1, 1e-9) || !approx(sol.Value(y), 5, 1e-9) ||
		!approx(sol.Value(z), 3, 1e-9) {
		t.Errorf("values = %v, want [-1 5 3]", sol.X)
	}
	if !approx(sol.Objective, -1-10+300, 1e-9) {
		t.Errorf("objective = %g, want 289", sol.Objective)
	}
}

func TestLPBoundFlip(t *testing.T) {
	// Forces the bounded-variable machinery: optimal solution has x at its
	// upper bound while a constraint binds y (max 2x + y as min -2x - y).
	p := NewProblem()
	x := p.AddVar("x", 0, 3, -2)
	y := p.AddVar("y", 0, 10, -1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 7)
	sol := mustSolve(t, p)
	if !approx(sol.Objective, -10, 1e-6) { // x=3, y=4
		t.Fatalf("objective = %g, want -10", sol.Objective)
	}
}

func TestLPDegenerate(t *testing.T) {
	// Degenerate vertex (redundant constraints through one point); max
	// x + y as min -x - y.
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, -1)
	y := p.AddVar("y", 0, Inf, -1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstraint([]Term{{x, 2}, {y, 2}}, LE, 8)
	p.AddConstraint([]Term{{x, 1}}, LE, 4)
	p.AddConstraint([]Term{{y, 1}}, LE, 4)
	sol := mustSolve(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, -4, 1e-6) {
		t.Fatalf("got %v obj %g, want optimal -4", sol.Status, sol.Objective)
	}
}

func TestLPNegativeRHS(t *testing.T) {
	// Rows with negative right-hand sides exercise the artificial-sign
	// handling. min x s.t. -x <= -3  (i.e. x >= 3).
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, 1)
	p.AddConstraint([]Term{{x, -1}}, LE, -3)
	sol := mustSolve(t, p)
	if !approx(sol.Value(x), 3, 1e-6) {
		t.Fatalf("x = %g, want 3", sol.Value(x))
	}
}

func TestLPDuplicateTermsMerged(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 0, Inf, 1)
	// x + x + x >= 9  ->  x >= 3
	addGE(p, []Term{{x, 1}, {x, 1}, {x, 1}}, 9)
	sol := mustSolve(t, p)
	if !approx(sol.Value(x), 3, 1e-6) {
		t.Fatalf("x = %g, want 3", sol.Value(x))
	}
}

func TestLPMinMaxObjectivePattern(t *testing.T) {
	// The BSOR MCL pattern: minimize U with load_e <= U rows.
	p := NewProblem()
	u := p.AddVar("U", 0, Inf, 1)
	x := p.AddVar("x", 0, 1, 0) // fraction of demand on path A vs B
	// load1 = 10x, load2 = 10(1-x); min max(load1, load2) = 5 at x=0.5.
	p.AddConstraint([]Term{{x, 10}, {u, -1}}, LE, 0)
	p.AddConstraint([]Term{{x, -10}, {u, -1}}, LE, -10)
	sol := mustSolve(t, p)
	if !approx(sol.Objective, 5, 1e-6) {
		t.Fatalf("min-max = %g, want 5", sol.Objective)
	}
}

func TestMILPKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary, solved as the
	// minimization of the negated values. Optimum: a+c=17 vs b+c=20 vs a+b
	// infeasible(7>6)... a=1,b=1: weight 7 no. b=1,c=1: weight 6, value 20.
	// Optimum -20.
	p := NewProblem()
	a := p.AddBinary("a", -10)
	b := p.AddBinary("b", -13)
	c := p.AddBinary("c", -7)
	p.AddConstraint([]Term{{a, 3}, {b, 4}, {c, 2}}, LE, 6)
	sol, err := SolveMILPContext(context.Background(), p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, -20, 1e-6) {
		t.Fatalf("got %v obj %g, want optimal -20", sol.Status, sol.Objective)
	}
	if !approx(sol.Value(b), 1, 1e-6) || !approx(sol.Value(c), 1, 1e-6) {
		t.Errorf("selection = %v, want b=c=1", sol.X)
	}
}

func TestMILPIntegerVsRelaxation(t *testing.T) {
	// min -x - y s.t. 2x + 2y <= 3, integer: LP gives -1.5, ILP gives -1.
	p := NewProblem()
	x := addInt(p, 0, 10, -1)
	y := addInt(p, 0, 10, -1)
	p.AddConstraint([]Term{{x, 2}, {y, 2}}, LE, 3)
	relax := mustSolve(t, p)
	if !approx(relax.Objective, -1.5, 1e-6) {
		t.Fatalf("relaxation = %g, want -1.5", relax.Objective)
	}
	sol, err := SolveMILPContext(context.Background(), p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, -1, 1e-6) {
		t.Fatalf("ILP = %v %g, want optimal -1", sol.Status, sol.Objective)
	}
}

func TestMILPAssignment(t *testing.T) {
	// 3x3 assignment problem, cost matrix with known optimum 5 (1+1+3).
	cost := [3][3]float64{{1, 4, 5}, {3, 1, 6}, {4, 5, 3}}
	p := NewProblem()
	var v [3][3]int
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v[i][j] = p.AddBinary("", cost[i][j])
		}
	}
	for i := 0; i < 3; i++ {
		var row, col []Term
		for j := 0; j < 3; j++ {
			row = append(row, Term{v[i][j], 1})
			col = append(col, Term{v[j][i], 1})
		}
		p.AddConstraint(row, EQ, 1)
		p.AddConstraint(col, EQ, 1)
	}
	sol, err := SolveMILPContext(context.Background(), p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 5, 1e-6) {
		t.Fatalf("got %v obj %g, want optimal 5", sol.Status, sol.Objective)
	}
}

func TestMILPInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddBinary("x", 1)
	y := p.AddBinary("y", 1)
	addGE(p, []Term{{x, 1}, {y, 1}}, 3)
	sol, err := SolveMILPContext(context.Background(), p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestMILPMixedContinuous(t *testing.T) {
	// min U s.t. U >= 7b1, U >= 7(1-b1), one binary path choice: the MCL
	// toy in integer form; optimum picks either path, U = 7.
	p := NewProblem()
	u := p.AddVar("U", 0, Inf, 1)
	b := p.AddBinary("b", 0)
	p.AddConstraint([]Term{{b, 7}, {u, -1}}, LE, 0)
	p.AddConstraint([]Term{{b, -7}, {u, -1}}, LE, -7)
	sol, err := SolveMILPContext(context.Background(), p, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 7, 1e-6) {
		t.Fatalf("got %v obj %g, want optimal 7", sol.Status, sol.Objective)
	}
	bv := sol.Value(b)
	if !approx(bv, 0, 1e-6) && !approx(bv, 1, 1e-6) {
		t.Errorf("binary value %g not integral", bv)
	}
}

func TestMILPNodeLimitReturnsIncumbent(t *testing.T) {
	// A problem big enough to need several nodes; a limit of 1 node cannot
	// complete, so status must not be Optimal.
	rng := rand.New(rand.NewSource(7))
	p := NewProblem()
	var terms []Term
	for i := 0; i < 12; i++ {
		v := p.AddBinary("", -(1 + rng.Float64()))
		terms = append(terms, Term{v, 1 + rng.Float64()*3})
	}
	p.AddConstraint(terms, LE, 8)
	sol, err := SolveMILPContext(context.Background(), p, MILPOptions{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == Optimal {
		t.Fatalf("1-node search claimed optimality")
	}
}

// Brute-force cross-check: random small pure-binary problems, MILP solver
// versus exhaustive enumeration.
func TestMILPAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		nv := 2 + rng.Intn(5) // 2..6 binaries
		nc := 1 + rng.Intn(3)
		p := NewProblem()
		costs := make([]float64, nv)
		for j := 0; j < nv; j++ {
			costs[j] = float64(rng.Intn(21) - 10)
			p.AddBinary("", costs[j])
		}
		type row struct {
			coefs []float64
			ge    bool // >= rather than <=
			rhs   float64
		}
		rows := make([]row, nc)
		for i := 0; i < nc; i++ {
			r := row{coefs: make([]float64, nv)}
			var terms []Term
			for j := 0; j < nv; j++ {
				r.coefs[j] = float64(rng.Intn(11) - 5)
				terms = append(terms, Term{j, r.coefs[j]})
			}
			r.ge = rng.Intn(2) == 0
			r.rhs = float64(rng.Intn(11) - 3)
			rows[i] = r
			if r.ge {
				addGE(p, terms, r.rhs)
			} else {
				p.AddConstraint(terms, LE, r.rhs)
			}
		}

		// Brute force.
		bestObj := math.Inf(1)
		found := false
		for mask := 0; mask < 1<<nv; mask++ {
			ok := true
			for _, r := range rows {
				lhs := 0.0
				for j := 0; j < nv; j++ {
					if mask>>j&1 == 1 {
						lhs += r.coefs[j]
					}
				}
				if (!r.ge && lhs > r.rhs+1e-9) || (r.ge && lhs < r.rhs-1e-9) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			obj := 0.0
			for j := 0; j < nv; j++ {
				if mask>>j&1 == 1 {
					obj += costs[j]
				}
			}
			if obj < bestObj {
				bestObj = obj
				found = true
			}
		}

		sol, err := SolveMILPContext(context.Background(), p, MILPOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !found {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: solver says %v, brute force says infeasible", trial, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal", trial, sol.Status)
		}
		if !approx(sol.Objective, bestObj, 1e-6) {
			t.Fatalf("trial %d: objective %g, brute force %g", trial, sol.Objective, bestObj)
		}
	}
}

// Random LP feasibility sanity: the simplex must return points that satisfy
// every constraint within tolerance.
func TestLPSolutionsAreFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		nv := 2 + rng.Intn(6)
		nc := 1 + rng.Intn(6)
		p := NewProblem()
		for j := 0; j < nv; j++ {
			p.AddVar("", 0, float64(1+rng.Intn(10)), float64(rng.Intn(9)-4))
		}
		type row struct {
			terms []Term
			ge    bool // >= rather than <=
			rhs   float64
		}
		rows := make([]row, 0, nc)
		for i := 0; i < nc; i++ {
			var terms []Term
			for j := 0; j < nv; j++ {
				terms = append(terms, Term{j, float64(rng.Intn(7) - 3)})
			}
			ge := rng.Intn(2) == 1
			rhs := float64(rng.Intn(21) - 5)
			rows = append(rows, row{terms, ge, rhs})
			if ge {
				addGE(p, terms, rhs)
			} else {
				p.AddConstraint(terms, LE, rhs)
			}
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			continue
		}
		for _, r := range rows {
			lhs := 0.0
			for _, tm := range r.terms {
				lhs += tm.Coef * sol.X[tm.Var]
			}
			if (!r.ge && lhs > r.rhs+1e-6) || (r.ge && lhs < r.rhs-1e-6) {
				t.Fatalf("trial %d: constraint violated: %g (>= %v) %g", trial, lhs, r.ge, r.rhs)
			}
		}
	}
}

func TestProblemValidation(t *testing.T) {
	p := NewProblem()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("infinite lower bound did not panic")
			}
		}()
		p.AddVar("bad", math.Inf(-1), 0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ub < lb did not panic")
			}
		}()
		p.AddVar("bad", 1, 0, 1)
	}()
	x := p.AddVar("x", 0, 1, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown variable in constraint did not panic")
			}
		}()
		p.AddConstraint([]Term{{x + 5, 1}}, LE, 1)
	}()
}

func TestStatusAndSenseStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || Feasible.String() != "feasible" {
		t.Error("Status strings wrong")
	}
	if LE.String() != "<=" || EQ.String() != "==" || Sense(2).String() != "Sense(2)" {
		t.Error("Sense strings wrong")
	}
}
