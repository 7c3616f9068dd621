package lp

import (
	"context"
	"math"
	"testing"
)

// FuzzSparseVsDense decodes a small LP from fuzz bytes and cross-checks the
// sparse revised simplex against the dense tableau (dense_test.go): statuses must
// agree and optimal objectives must match to tolerance. The seeded corpus
// runs under plain `go test`; `go test -fuzz=FuzzSparseVsDense ./internal/lp`
// explores further.
func FuzzSparseVsDense(f *testing.F) {
	// Seed corpus: hand-picked byte strings covering negated objectives,
	// negated LE rows and EQ rows, negative RHS, fixed variables, and
	// infeasible boxes.
	f.Add([]byte{2, 1, 0, 10, 5, 200, 3, 0, 7, 1, 2})
	f.Add([]byte{3, 2, 1, 5, 9, 100, 4, 8, 120, 1, 3, 2, 0, 6, 250, 2, 1, 1, 1, 9})
	f.Add([]byte{4, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Add([]byte{5, 4, 1, 255, 254, 253, 0, 1, 2, 127, 128, 129, 63, 64, 65, 31, 32, 33, 200, 100, 50, 25})
	f.Add([]byte{6, 6, 0, 11, 22, 33, 44, 55, 66, 77, 88, 99, 110, 121, 132, 143, 154, 165, 176, 187, 198, 209, 220, 231, 242, 253, 8})
	f.Add([]byte{2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 0, 90, 90, 90, 90, 90, 90, 90})
	f.Add(masterSeed)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := problemFromBytes(data)
		if p == nil {
			return
		}
		ds, derr := solveDense(p)
		ss, serr := Solve(p)
		// Iteration-limit pathologies on either engine are not agreement
		// failures; both engines surface them as errors.
		if derr != nil || serr != nil {
			return
		}
		if ds.Status != ss.Status {
			t.Fatalf("status mismatch: dense %v, sparse %v", ds.Status, ss.Status)
		}
		if ds.Status != Optimal {
			return
		}
		if math.Abs(ds.Objective-ss.Objective) > 1e-5*(1+math.Abs(ds.Objective)) {
			t.Fatalf("objective mismatch: dense %g, sparse %g", ds.Objective, ss.Objective)
		}
		// The sparse point must satisfy its own problem.
		if _, _, ok := p.checkFeasible(ss.X, 1); !ok {
			t.Fatalf("sparse solution violates constraints")
		}
		if data[0] >= 128 {
			checkMasterMILP(t, p)
		}
	})
}

// checkMasterMILP is the fuzz target's MILP leg on a master-shaped input:
// branch and bound crashing from a route set (each flow's first path, U at
// the largest load) must reach the dense stack's optimum, and so must a
// search from a warm start that violates every row (every path at 1, U at
// 0), whose crash needs artificials. Demands are integers, so every
// integer point's objective is one too and a gap below 1 prunes no better
// point: both searches stay exact at a fraction of the nodes.
func checkMasterMILP(t *testing.T, p *Problem) {
	const gap = 0.99
	ds, err := solveMILPDense(p, MILPOptions{Gap: gap, MaxNodes: 2000})
	if err != nil || ds.Status != Optimal {
		return // no proven reference: a dense pathology or a long search
	}
	start := make([]float64, p.NumVars())
	bad := make([]float64, p.NumVars())
	for _, c := range p.cons {
		if c.sense == EQ {
			start[c.terms[0].Var] = 1
			for _, tm := range c.terms {
				bad[tm.Var] = 1
			}
		}
	}
	start[0] = p.vars[0].lb
	for _, c := range p.cons {
		if c.sense == LE {
			load := 0.0
			for _, tm := range c.terms[:len(c.terms)-1] { // the last term is U's
				load += tm.Coef * start[tm.Var]
			}
			start[0] = math.Max(start[0], load)
		}
	}
	for _, w := range []struct {
		name string
		x    []float64
	}{{"route set", start}, {"infeasible", bad}} {
		ss, err := SolveMILPContext(context.Background(), p, MILPOptions{Gap: gap, WarmStart: w.x})
		if err != nil {
			t.Fatalf("MILP from %s start: %v", w.name, err)
		}
		if ss.Status != Optimal || math.Abs(ds.Objective-ss.Objective) > 1e-5*(1+math.Abs(ds.Objective)) {
			t.Fatalf("MILP from %s start: %v %g, dense optimal %g", w.name, ss.Status, ss.Objective, ds.Objective)
		}
		if _, _, ok := p.checkFeasible(ss.X, 1e-6); !ok {
			t.Fatalf("MILP from %s start: incumbent violates constraints", w.name)
		}
	}
}

// masterSeed decodes (masterFromBytes) to the structure the sparse engine
// exists for: 12 choose-one EQ rows over 4 paths each, 30 min-max LE rows
// sharing the U column, demands from a small set so ties are everywhere,
// and U bounded below by the largest demand.
var masterSeed = []byte{
	200, 4, 2, 4,
	3, 17, 40, 9, 28, 5, 33, 12, 21, 2, 36, 14, 7, 30, 19, 25,
	1, 11, 38, 16, 23, 6, 34, 27, 8, 31, 13, 20, 4, 29, 10, 35,
}

// problemFromBytes decodes data into an LP. A first byte below 128 gives a
// small dense one: byte 0 is the variable count (clamped to [1, 6]), byte 1
// the constraint count (clamped to [1, 6]), byte 2 the objective sign (odd
// negates every cost, a maximization), then per-variable (ub, cost) pairs
// and per-constraint (sense, rhs, coef...) groups, where a sense byte of 1
// mod 3 gives a >= row written as the LE row with coefficients and rhs
// negated; nil when data is too short to fill every field. A first byte of
// 128 or more gives a restricted-master-shaped one (masterFromBytes).
func problemFromBytes(data []byte) *Problem {
	if len(data) < 3 {
		return nil
	}
	if data[0] >= 128 {
		return masterFromBytes(data[1:])
	}
	nv := 1 + int(data[0])%6
	nc := 1 + int(data[1])%6
	next := 3
	take := func() (byte, bool) {
		if next >= len(data) {
			return 0, false
		}
		b := data[next]
		next++
		return b, true
	}
	p := NewProblem()
	for j := 0; j < nv; j++ {
		ubb, ok1 := take()
		cb, ok2 := take()
		if !ok1 || !ok2 {
			return nil
		}
		ub := float64(ubb % 12) // ub 0 makes a fixed variable
		cost := float64(int(cb%21) - 10)
		p.AddVar("", 0, ub, cost)
	}
	for i := 0; i < nc; i++ {
		sb, ok := take()
		if !ok {
			return nil
		}
		rb, ok := take()
		if !ok {
			return nil
		}
		rhs := float64(int(rb%25) - 8)
		var terms []Term
		for j := 0; j < nv; j++ {
			cb, ok := take()
			if !ok {
				return nil
			}
			if c := int(cb%9) - 4; c != 0 {
				terms = append(terms, Term{j, float64(c)})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{0, 1}}
		}
		addRow(p, terms, int(sb%3), rhs)
	}
	if data[2]%2 == 1 {
		negateCosts(p)
	}
	return p
}

// negateCosts turns p into the maximization of its objective: the solver
// minimizes, so a maximization is the minimization of the negated costs.
func negateCosts(p *Problem) {
	for j := range p.vars {
		p.vars[j].cost = -p.vars[j].cost
	}
}

// addGE adds the row sum(terms) >= rhs: the solver has LE and EQ rows
// only, so it goes in as the LE row with coefficients and rhs negated.
func addGE(p *Problem, terms []Term, rhs float64) {
	neg := make([]Term, len(terms))
	for i, t := range terms {
		neg[i] = Term{t.Var, -t.Coef}
	}
	p.AddConstraint(neg, LE, -rhs)
}

// addRow adds a random generator's row of kind 0 (<=), 1 (>=) or 2 (==).
func addRow(p *Problem, terms []Term, kind int, rhs float64) {
	switch kind {
	case 0:
		p.AddConstraint(terms, LE, rhs)
	case 1:
		addGE(p, terms, rhs)
	default:
		p.AddConstraint(terms, EQ, rhs)
	}
}

// masterFromBytes decodes a route-selection restricted master: bytes 0-2
// give the flow count (8-12), paths per flow (2-4) and channel-row count
// (32-40); the rest, read cyclically, give each flow's demand (1-4) and the
// four channel rows each path loads. The LP is
//
//	minimize U  s.t.  sum_p x[f][p] = 1 per flow,
//	                  sum demand*x over the paths on a channel <= U,
//	                  x binary, U >= the largest demand
//
// (Solve ignores the binary markers; the MILP leg uses them).
func masterFromBytes(data []byte) *Problem {
	if len(data) < 4 {
		return nil
	}
	nf := 8 + int(data[0])%5
	np := 2 + int(data[1])%3
	nc := 32 + int(data[2])%9
	rest, next := data[3:], 0
	take := func() int {
		b := rest[next%len(rest)]
		next++
		return int(b)
	}
	demand := make([]float64, nf)
	maxDemand := 0.0
	for f := range demand {
		demand[f] = float64(1 + take()%4)
		maxDemand = math.Max(maxDemand, demand[f])
	}
	p := NewProblem()
	u := p.AddVar("U", maxDemand, Inf, 1)
	chTerms := make([][]Term, nc)
	for f := 0; f < nf; f++ {
		var choose []Term
		for k := 0; k < np; k++ {
			v := p.AddBinary("", 0)
			choose = append(choose, Term{v, 1})
			for e := 0; e < 4; e++ {
				// AddConstraint sums a channel drawn twice, as a path
				// crossing two VCs of one channel would.
				ch := take() % nc
				chTerms[ch] = append(chTerms[ch], Term{v, demand[f]})
			}
		}
		p.AddConstraint(choose, EQ, 1)
	}
	for _, terms := range chTerms {
		if len(terms) > 0 {
			p.AddConstraint(append(terms, Term{u, -1}), LE, 0)
		}
	}
	return p
}

// TestFuzzMasterSeedShape keeps the master seed honest: it must decode to
// the structure it is there to cover.
func TestFuzzMasterSeedShape(t *testing.T) {
	p := problemFromBytes(masterSeed)
	if p == nil {
		t.Fatal("master seed does not decode")
	}
	if p.NumConstraints() < 40 {
		t.Fatalf("master seed decodes to %d rows, want at least 40", p.NumConstraints())
	}
	if p.vars[0].lb <= 0 {
		t.Fatal("U is not bounded below")
	}
	sol, err := Solve(p)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("master seed: %v %v", sol, err)
	}
}
