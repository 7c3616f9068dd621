package lp

import (
	"fmt"
	"math"
)

// The seed's dense bounded-variable two-phase tableau, kept as the test
// oracle for the sparse revised simplex in sparse.go: FuzzSparseVsDense,
// TestSparseMatchesDense* and solveMILPDense compare the two engines.

// simplex is a dense bounded-variable two-phase primal simplex tableau.
type simplex struct {
	m, n    int // rows, total columns (structural + slack + artificial)
	nStruct int
	nReal   int // structural + slack (artificials follow)

	tab    [][]float64 // m x n: B^-1 * A
	xB     []float64   // values of basic variables, per row
	basis  []int       // column basic in each row
	lb, ub []float64   // per column
	cost   []float64   // phase-2 objective per column (minimization)
	dj     []float64   // reduced costs per column
	stat   []varStatus // per column

	unboundedFlag bool // set by iterate when the LP is unbounded
}

// solveLP solves the LP relaxation of p with the given bound overrides
// (nil means use the problem's own bounds). Integer markers are ignored.
func solveLP(p *Problem, lbOver, ubOver []float64) (*Solution, error) {
	nStruct := len(p.vars)
	lb := make([]float64, nStruct)
	ub := make([]float64, nStruct)
	for j, v := range p.vars {
		lb[j], ub[j] = v.lb, v.ub
	}
	if lbOver != nil {
		copy(lb, lbOver)
	}
	if ubOver != nil {
		copy(ub, ubOver)
	}
	for j := range lb {
		if lb[j] > ub[j] {
			return &Solution{Status: Infeasible}, nil
		}
	}

	m := len(p.cons)
	nSlack := 0
	for _, c := range p.cons {
		if c.sense != EQ {
			nSlack++
		}
	}
	nReal := nStruct + nSlack
	n := nReal + m // one artificial per row
	s := &simplex{
		m: m, n: n, nStruct: nStruct, nReal: nReal,
		tab:   make([][]float64, m),
		xB:    make([]float64, m),
		basis: make([]int, m),
		lb:    make([]float64, n),
		ub:    make([]float64, n),
		cost:  make([]float64, n),
		dj:    make([]float64, n),
		stat:  make([]varStatus, n),
	}
	copy(s.lb, lb)
	copy(s.ub, ub)
	for j, v := range p.vars {
		s.cost[j] = v.cost
	}
	// Slacks: each LE row gets a +1 slack in [0, inf).
	for j := nStruct; j < n; j++ {
		s.lb[j], s.ub[j] = 0, Inf
	}

	// Dense constraint matrix rows, including slack columns.
	slack := nStruct
	rowSlack := make([]int, m) // slack column per row, -1 for EQ
	a := make([][]float64, m)
	rhs := make([]float64, m)
	for i, c := range p.cons {
		a[i] = make([]float64, n)
		for _, t := range c.terms {
			a[i][t.Var] += t.Coef
		}
		rhs[i] = c.rhs
		rowSlack[i] = -1
		if c.sense == LE {
			a[i][slack] = 1
			rowSlack[i] = slack
			slack++
		}
	}

	// Start every real variable at a finite bound (lower bounds are always
	// finite by construction).
	val := func(j int) float64 {
		if s.stat[j] == atUB {
			return s.ub[j]
		}
		return s.lb[j]
	}
	for j := 0; j < nReal; j++ {
		s.stat[j] = atLB
	}

	// Crash basis: rows whose slack can absorb the residual start with
	// the slack basic (no artificial needed); the rest get an artificial
	// column with coefficient sign(r_i) so its value is |r_i| >= 0. The
	// residual r_i = rhs_i - A_i * x_N is over nonbasic columns (slacks
	// are nonbasic at zero, so including them changes nothing). Fewer
	// artificials make phase 1 dramatically cheaper on the mostly-
	// inequality route-selection masters.
	for i := 0; i < m; i++ {
		r := rhs[i]
		for j := 0; j < nReal; j++ {
			if a[i][j] != 0 {
				r -= a[i][j] * val(j)
			}
		}
		s.tab[i] = make([]float64, n)
		switch {
		case rowSlack[i] >= 0 && r >= 0:
			// LE row: slack = r >= 0 is feasible as the basic variable.
			copy(s.tab[i], a[i])
			s.xB[i] = r
			s.basis[i] = rowSlack[i]
			s.stat[rowSlack[i]] = basic
		default:
			art := nReal + i
			sgn := 1.0
			if r < 0 {
				sgn = -1.0
			}
			a[i][art] = sgn
			for j := 0; j < n; j++ {
				s.tab[i][j] = sgn * a[i][j]
			}
			s.xB[i] = math.Abs(r)
			s.basis[i] = art
			s.stat[art] = basic
		}
	}

	// Phase 1 (only when the crash basis left artificials basic):
	// minimize the sum of artificial values.
	needPhase1 := false
	for i := 0; i < m; i++ {
		if s.basis[i] >= nReal {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		phase1 := make([]float64, n)
		for i := 0; i < m; i++ {
			phase1[nReal+i] = 1
		}
		s.priceOut(phase1)
		if err := s.iterate(phase1); err != nil {
			return nil, err
		}
		if s.unboundedFlag {
			// Phase 1 is bounded below by zero; an unbounded ray here
			// means a numerically lost pivot.
			return nil, fmt.Errorf("lp: phase-1 reported unbounded (numerical failure)")
		}
		if s.objective(phase1, val) > epsFeas {
			return &Solution{Status: Infeasible}, nil
		}
	}
	// Freeze artificials at zero; they may remain basic (degenerate) but
	// can never take a nonzero value again.
	for i := 0; i < m; i++ {
		art := nReal + i
		s.lb[art], s.ub[art] = 0, 0
		if s.stat[art] != basic {
			s.stat[art] = atLB
		}
	}

	// Phase 2: the real objective.
	s.priceOut(s.cost)
	if err := s.iterate(s.cost); err != nil {
		return nil, err
	}
	if s.unboundedFlag {
		return &Solution{Status: Unbounded}, nil
	}

	x := make([]float64, nStruct)
	for j := 0; j < nStruct; j++ {
		if s.stat[j] != basic {
			x[j] = val(j)
		}
	}
	for i := 0; i < m; i++ {
		if s.basis[i] < nStruct {
			x[s.basis[i]] = s.xB[i]
		}
	}
	obj := 0.0
	for j, v := range p.vars {
		obj += v.cost * x[j]
	}
	return &Solution{Status: Optimal, Objective: obj, X: x}, nil
}

// objective evaluates cost over the current point.
func (s *simplex) objective(cost []float64, val func(int) float64) float64 {
	obj := 0.0
	for i := 0; i < s.m; i++ {
		obj += cost[s.basis[i]] * s.xB[i]
	}
	for j := 0; j < s.n; j++ {
		if s.stat[j] != basic && cost[j] != 0 {
			obj += cost[j] * val(j)
		}
	}
	return obj
}

// priceOut recomputes reduced costs dj = cost_j - cost_B^T * tab[:,j].
func (s *simplex) priceOut(cost []float64) {
	copy(s.dj, cost)
	for i := 0; i < s.m; i++ {
		cb := cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.tab[i]
		for j := 0; j < s.n; j++ {
			s.dj[j] -= cb * row[j]
		}
	}
	for i := 0; i < s.m; i++ {
		s.dj[s.basis[i]] = 0
	}
}

// iterate runs primal simplex iterations until optimality, unboundedness,
// or the iteration budget is exhausted. Dantzig pricing is used initially,
// with a switch to Bland's rule to guarantee termination under degeneracy.
func (s *simplex) iterate(cost []float64) error {
	s.unboundedFlag = false
	maxIter := 2000 + 40*(s.m+s.n)
	blandAfter := maxIter / 2
	for iter := 0; iter <= maxIter; iter++ {
		bland := iter >= blandAfter
		q := s.chooseEntering(bland)
		if q < 0 {
			return nil // optimal for this phase
		}
		sigma := 1.0
		if s.stat[q] == atUB {
			sigma = -1.0
		}
		// Ratio test: largest step t >= 0 keeping all basic variables and
		// the entering variable within bounds.
		tMax := s.ub[q] - s.lb[q] // bound-flip limit (may be Inf)
		leave := -1
		leaveToUB := false
		for i := 0; i < s.m; i++ {
			y := s.tab[i][q]
			if math.Abs(y) < epsPivot {
				continue
			}
			d := sigma * y
			bv := s.basis[i]
			var t float64
			var toUB bool
			if d > 0 { // basic variable decreases toward its lower bound
				t = (s.xB[i] - s.lb[bv]) / d
			} else { // increases toward its upper bound
				if math.IsInf(s.ub[bv], 1) {
					continue
				}
				t = (s.ub[bv] - s.xB[i]) / -d
				toUB = true
			}
			if t < 0 {
				t = 0
			}
			if t < tMax-epsRatio || (t < tMax+epsRatio && leave >= 0 && bv < s.basis[leave]) {
				tMax = t
				leave = i
				leaveToUB = toUB
			}
		}
		if math.IsInf(tMax, 1) {
			s.unboundedFlag = true
			return nil
		}
		if leave < 0 {
			// Bound flip: entering variable jumps to its other bound.
			for i := 0; i < s.m; i++ {
				s.xB[i] -= sigma * tMax * s.tab[i][q]
			}
			if s.stat[q] == atLB {
				s.stat[q] = atUB
			} else {
				s.stat[q] = atLB
			}
			continue
		}
		s.pivot(q, leave, sigma, tMax, leaveToUB)
	}
	return fmt.Errorf("%w (m=%d n=%d)", ErrIterationLimit, s.m, s.n)
}

// chooseEntering picks a nonbasic column that can improve the objective:
// at its lower bound with negative reduced cost, or at its upper bound with
// positive reduced cost. Returns -1 at optimality.
func (s *simplex) chooseEntering(bland bool) int {
	best, bestScore := -1, epsCost
	for j := 0; j < s.n; j++ {
		if s.stat[j] == basic || s.lb[j] == s.ub[j] {
			continue
		}
		var score float64
		if s.stat[j] == atLB {
			score = -s.dj[j]
		} else {
			score = s.dj[j]
		}
		if score > bestScore {
			if bland {
				return j
			}
			best, bestScore = j, score
		}
	}
	return best
}

// pivot brings column q into the basis at row leave after a step of t.
func (s *simplex) pivot(q, leave int, sigma, t float64, leaveToUB bool) {
	enterVal := s.lb[q]
	if s.stat[q] == atUB {
		enterVal = s.ub[q]
	}
	enterVal += sigma * t
	for i := 0; i < s.m; i++ {
		if i != leave {
			s.xB[i] -= sigma * t * s.tab[i][q]
		}
	}
	leaving := s.basis[leave]
	if leaveToUB {
		s.stat[leaving] = atUB
	} else {
		s.stat[leaving] = atLB
	}

	// Gaussian elimination on the tableau and reduced costs.
	piv := s.tab[leave][q]
	row := s.tab[leave]
	inv := 1 / piv
	for j := 0; j < s.n; j++ {
		row[j] *= inv
	}
	for i := 0; i < s.m; i++ {
		if i == leave {
			continue
		}
		f := s.tab[i][q]
		if f == 0 {
			continue
		}
		ri := s.tab[i]
		for j := 0; j < s.n; j++ {
			ri[j] -= f * row[j]
		}
		ri[q] = 0 // eliminate residual rounding
	}
	if f := s.dj[q]; f != 0 {
		for j := 0; j < s.n; j++ {
			s.dj[j] -= f * row[j]
		}
		s.dj[q] = 0
	}

	s.basis[leave] = q
	s.stat[q] = basic
	s.xB[leave] = enterVal
}

// solveDense solves the LP relaxation with the dense-tableau simplex, the
// reference the sparse solver is checked against (the cross-check tests and
// the fuzz corpus compare the two).
func solveDense(p *Problem) (*Solution, error) {
	return solveLP(p, nil, nil)
}
