// Package lp provides a self-contained linear programming and mixed
// integer-linear programming solver.
//
// The thesis solves its BSOR route-selection MILP (§3.5) with a commercial
// solver (CPLEX). No such solver exists in the Go standard library, so this
// package is the substitution: a bounded-variable revised simplex over a
// sparse LU basis for LPs, and a branch-and-bound layer for integer
// variables. It solves what the route-selection master needs and no more:
// minimization only, rows of sense LE or EQ, continuous and binary columns.
// (A maximization is a minimization of the negated costs; a >= row is a <=
// row with its coefficients and right-hand side negated.) The seed's dense
// two-phase tableau lives in dense_test.go as the reference the tests
// check the sparse solver against. The formulation is unchanged; only
// solve time differs from a commercial solver, which the thesis itself
// anticipates by limiting solver effort on large instances (§7.3). Problem
// sizes in this repository (hundreds of rows, a few thousand columns) are
// comfortably in range.
package lp

import (
	"fmt"
	"math"
)

// Inf is the bound value representing an unbounded variable side.
var Inf = math.Inf(1)

// Sense is a constraint relation.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // <=
	EQ              // ==
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var  int
	Coef float64
}

type variable struct {
	lb, ub  float64
	cost    float64
	integer bool
}

type constraint struct {
	terms []Term
	sense Sense
	rhs   float64
}

// Problem is a linear or mixed-integer program:
//
//	minimize    sum_j cost_j * x_j
//	subject to  constraints, lb_j <= x_j <= ub_j,
//	            x_j integral where marked (AddBinary).
//
// Lower bounds must be finite (use a shifted variable for genuinely free
// variables); upper bounds may be Inf.
type Problem struct {
	vars []variable
	cons []constraint
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar adds a continuous variable with bounds [lb, ub] and objective
// coefficient cost, returning its index. name is used in diagnostics only.
func (p *Problem) AddVar(name string, lb, ub, cost float64) int {
	if math.IsInf(lb, 0) || math.IsNaN(lb) {
		panic("lp: lower bound must be finite")
	}
	if ub < lb {
		panic(fmt.Sprintf("lp: variable %q has ub %g < lb %g", name, ub, lb))
	}
	p.vars = append(p.vars, variable{lb: lb, ub: ub, cost: cost})
	return len(p.vars) - 1
}

// AddBinary adds a {0, 1} integer variable.
func (p *Problem) AddBinary(name string, cost float64) int {
	v := p.AddVar(name, 0, 1, cost)
	p.vars[v].integer = true
	return v
}

// NumVars reports the number of variables.
func (p *Problem) NumVars() int { return len(p.vars) }

// NumConstraints reports the number of constraints.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// AddConstraint adds the row  sum(terms) sense rhs. Terms may repeat a
// variable; coefficients are summed.
func (p *Problem) AddConstraint(terms []Term, sense Sense, rhs float64) {
	merged := make(map[int]float64, len(terms))
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.vars) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
		merged[t.Var] += t.Coef
	}
	row := make([]Term, 0, len(merged))
	for _, t := range terms {
		if c, ok := merged[t.Var]; ok {
			if c != 0 {
				row = append(row, Term{Var: t.Var, Coef: c})
			}
			delete(merged, t.Var)
		}
	}
	p.cons = append(p.cons, constraint{terms: row, sense: sense, rhs: rhs})
}

// Status is a solver outcome.
type Status int

// Solver outcomes.
const (
	// Optimal: the returned solution is proven optimal.
	Optimal Status = iota
	// Feasible: a feasible (integer) solution was found but the search was
	// truncated by a node limit, so optimality is not proven.
	Feasible
	// Infeasible: no solution satisfies the constraints.
	Infeasible
	// Unbounded: the objective can improve without limit.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of Solve or SolveMILPContext.
type Solution struct {
	Status    Status
	Objective float64
	// X holds a value per variable; valid when Status is Optimal or
	// Feasible.
	X []float64
	// Nodes is the number of branch-and-bound nodes explored (MILP only).
	Nodes int
}

// Value returns the solution value of variable v.
func (s *Solution) Value(v int) float64 { return s.X[v] }
