package lp

import "math"

// propagator performs interval bound propagation over a Problem's
// constraints inside branch and bound. On the set-partitioning structures
// this solver mostly sees, fixing one path binary to 1 lets its choose-one
// equality row fix every sibling to 0, which both shrinks the child LP's
// freedom and lets whole children be pruned without a solve.
type propagator struct {
	p *Problem
	// varRows lists, per variable, the constraints it appears in.
	varRows [][]int32
}

func newPropagator(p *Problem) *propagator {
	pr := &propagator{p: p, varRows: make([][]int32, len(p.vars))}
	for ci, c := range p.cons {
		for _, t := range c.terms {
			pr.varRows[t.Var] = append(pr.varRows[t.Var], int32(ci))
		}
	}
	return pr
}

// propagate tightens lb/ub in place starting from a change to variable
// seed. Returns false when propagation proves the box empty (some variable
// ends with lb > ub). The work list is bounded: each variable's bounds only
// ever tighten, and a tightening below tolerance is not re-enqueued.
func (pr *propagator) propagate(lb, ub []float64, seed int) bool {
	const tol = 1e-9
	queue := []int{seed}
	queued := map[int]bool{seed: true}
	rounds := 0
	for len(queue) > 0 {
		rounds++
		if rounds > 10*len(pr.p.vars)+100 {
			return true // safety valve: accept the bounds tightened so far
		}
		v := queue[0]
		queue = queue[1:]
		queued[v] = false
		for _, ci := range pr.varRows[v] {
			c := &pr.p.cons[ci]
			// Activity bounds of the row excluding each term are derived
			// from the full min/max activity by subtracting the term's own
			// contribution, so one pass over the terms suffices.
			minAct, maxAct := 0.0, 0.0
			for _, t := range c.terms {
				if t.Coef > 0 {
					minAct += t.Coef * lb[t.Var]
					maxAct += t.Coef * ub[t.Var]
				} else {
					minAct += t.Coef * ub[t.Var]
					maxAct += t.Coef * lb[t.Var]
				}
			}
			if math.IsInf(minAct, 0) && math.IsInf(maxAct, 0) {
				continue
			}
			for _, t := range c.terms {
				var lo, hi float64 // term contribution bounds
				if t.Coef > 0 {
					lo, hi = t.Coef*lb[t.Var], t.Coef*ub[t.Var]
				} else {
					lo, hi = t.Coef*ub[t.Var], t.Coef*lb[t.Var]
				}
				minOther, maxOther := minAct-lo, maxAct-hi
				// Implied bounds on the term value t.Coef * x. Infinite (or
				// indeterminate, when the term's own bound is infinite)
				// activities admit no tightening.
				implLo, implHi := math.Inf(-1), math.Inf(1)
				if !math.IsInf(minOther, 0) && !math.IsNaN(minOther) {
					implHi = c.rhs - minOther
				}
				if c.sense == EQ && !math.IsInf(maxOther, 0) && !math.IsNaN(maxOther) {
					implLo = c.rhs - maxOther
				}
				var newLB, newUB float64
				if t.Coef > 0 {
					newLB, newUB = implLo/t.Coef, implHi/t.Coef
				} else {
					newLB, newUB = implHi/t.Coef, implLo/t.Coef
				}
				if pr.p.vars[t.Var].integer {
					newLB = math.Ceil(newLB - tol)
					newUB = math.Floor(newUB + tol)
				}
				changed := false
				if newLB > lb[t.Var]+tol {
					lb[t.Var] = newLB
					changed = true
				}
				if newUB < ub[t.Var]-tol {
					ub[t.Var] = newUB
					changed = true
				}
				if lb[t.Var] > ub[t.Var] {
					if lb[t.Var] > ub[t.Var]+tol {
						return false
					}
					lb[t.Var] = ub[t.Var] // collapse a rounding-width box
				}
				if changed && !queued[t.Var] {
					queued[t.Var] = true
					queue = append(queue, t.Var)
				}
			}
		}
	}
	return true
}
