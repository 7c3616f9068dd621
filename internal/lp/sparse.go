package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/metrics"
)

// Solver tolerances. Problem data in this repository (bandwidth demands,
// unit path-incidence coefficients) is well scaled, so fixed tolerances
// suffice.
const (
	epsCost  = 1e-7 // reduced-cost optimality tolerance
	epsPivot = 1e-9 // minimum acceptable pivot magnitude
	epsFeas  = 1e-7 // feasibility tolerance (phase-1 objective)
	epsRatio = 1e-9 // ratio-test tie tolerance
)

// ErrIterationLimit is returned when the simplex fails to converge within
// its iteration budget (indicative of numerical trouble).
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// variable status within the simplex.
type varStatus int8

const (
	atLB varStatus = iota
	atUB
	basic
)

// ErrSingularBasis is returned when a basis refactorization fails; the
// branch-and-bound layer treats it as a signal to re-solve cold.
var ErrSingularBasis = errors.New("lp: singular basis")

// refactorEvery is the length the eta file may reach before the basis is
// refactorized: it bounds both the drift of the product form and the work
// the file adds to every ftran and btran.
const refactorEvery = 64

// alpha eligibility threshold for dual-simplex entering candidates.
const epsAlpha = 1e-7

// Harris ratio-test tolerances: how much primal (resp. dual) feasibility a
// single pivot may give away in exchange for a larger, numerically safer
// pivot element. Tiny pivots are the failure mode that matters here — a
// 1e-7 pivot turns a unit bound violation into a 1e7-scale basis swing.
const (
	harrisPrimal = 1e-7
	harrisDual   = 1e-6
)

// phase1Tol accepts a perturbed phase-1 optimum as feasible; see the check
// in coldSolve.
const phase1Tol = 1e-5

// cscMatrix is column-compressed storage of the structural and slack
// columns: col j occupies rowIdx/val[colPtr[j]:colPtr[j+1]].
type cscMatrix struct {
	colPtr []int32
	rowIdx []int32
	val    []float64
}

// basisState snapshots a simplex basis so a closely related solve (a
// branch-and-bound child that differs from its parent in one variable
// bound) can start from the parent's optimal basis.
type basisState struct {
	basis   []int
	stat    []varStatus
	artSign []float64
}

// sparseSolver is a revised bounded-variable simplex over one Problem: the
// constraint matrix is stored once in sparse column-major form, the basis
// is held as a sparse LU factorization plus a product-form eta file with
// periodic refactorization (lu.go), and pricing touches only the nonzeros
// of each column. A solver instance is reused across every node of a
// branch-and-bound search; only bounds and basis state change per solve.
type sparseSolver struct {
	p       *Problem
	m       int // rows
	nStruct int
	nReal   int // structural + slack
	n       int // + one artificial per row

	A        cscMatrix
	artRows  []int32 // artificial column j has single entry at row j-nReal
	rowSlack []int   // slack column per row; -1 for EQ rows
	rhs      []float64

	phase1Cost []float64 // 1 on artificials
	phase2Cost []float64 // the objective on structural columns

	// Per-solve state (bounds are rewritten by every solveLP call).
	lb, ub   []float64 // working bounds (perturbed during cold phases)
	lbX, ubX []float64 // exact bounds of the current solve
	costP    []float64 // perturbed phase-2 costs (dual ratio tie-breaking)
	stat     []varStatus
	basis    []int
	artSign  []float64 // artificial column coefficient per row (set by crash)
	taken    []bool    // crash: rows a structural column is basic on
	lu       *luFactor
	luOK     bool // lu factors basis/artSign
	xB       []float64

	// Scratch, sized once and reused by every solve. rwork (by row) and
	// cwork (by basis position) feed ftran and btran; rho and rhoTry hold
	// rows of the basis inverse in the dual ratio test.
	y, w, rwork, cwork, rho, rhoTry []float64
	cands                           []dualCand
	unbounded                       bool

	// inst counts pivots/refactorizations; the zero value is disabled.
	inst Instruments
}

// dualCand is one sign-eligible entering column of a dual ratio test.
type dualCand struct {
	j     int
	alpha float64
	ratio float64
}

func newSparseSolver(p *Problem) *sparseSolver {
	m := len(p.cons)
	nStruct := len(p.vars)
	nSlack := 0
	for _, c := range p.cons {
		if c.sense != EQ {
			nSlack++
		}
	}
	nReal := nStruct + nSlack
	n := nReal + m
	s := &sparseSolver{
		p: p, m: m, nStruct: nStruct, nReal: nReal, n: n,
		artRows:    make([]int32, m),
		rowSlack:   make([]int, m),
		rhs:        make([]float64, m),
		phase1Cost: make([]float64, n),
		phase2Cost: make([]float64, n),
		lb:         make([]float64, n),
		ub:         make([]float64, n),
		lbX:        make([]float64, n),
		ubX:        make([]float64, n),
		costP:      make([]float64, n),
		stat:       make([]varStatus, n),
		basis:      make([]int, m),
		artSign:    make([]float64, m),
		taken:      make([]bool, m),
		lu:         newLUFactor(m),
		xB:         make([]float64, m),
		y:          make([]float64, m),
		w:          make([]float64, m),
		rwork:      make([]float64, m),
		cwork:      make([]float64, m),
		rho:        make([]float64, m),
		rhoTry:     make([]float64, m),
		cands:      make([]dualCand, 0, nReal),
	}
	for i := range s.artRows {
		s.artRows[i] = int32(i)
		s.artSign[i] = 1
		s.phase1Cost[nReal+i] = 1
	}
	for j, v := range p.vars {
		s.phase2Cost[j] = v.cost
	}
	// costP breaks dual ratio-test ties on the massively degenerate
	// set-partitioning masters this solver mostly sees: exact duals leave
	// whole tie classes at ratio zero, and a deterministic selection over
	// exact ties makes no dual progress. The perturbed costs steer the
	// entering choice only; every returned solution is re-polished against
	// the exact objective.
	for j := 0; j < n; j++ {
		s.costP[j] = s.phase2Cost[j] + 1e-7*(1+math.Abs(s.phase2Cost[j]))*(0.5+noise(j))
	}

	// Build the CSC matrix: count entries per column, then fill. Constraint
	// terms are pre-merged by AddConstraint, so rows within a column arrive
	// in ascending order.
	cnt := make([]int32, nReal)
	slack := nStruct
	for i, c := range p.cons {
		for _, t := range c.terms {
			cnt[t.Var]++
		}
		s.rowSlack[i] = -1
		if c.sense != EQ {
			cnt[slack]++
			s.rowSlack[i] = slack
			slack++
		}
		s.rhs[i] = c.rhs
	}
	colPtr := make([]int32, nReal+1)
	for j := 0; j < nReal; j++ {
		colPtr[j+1] = colPtr[j] + cnt[j]
	}
	rowIdx := make([]int32, colPtr[nReal])
	val := make([]float64, colPtr[nReal])
	next := make([]int32, nReal)
	copy(next, colPtr[:nReal])
	for i, c := range p.cons {
		for _, t := range c.terms {
			k := next[t.Var]
			next[t.Var]++
			rowIdx[k] = int32(i)
			val[k] = t.Coef
		}
		if sl := s.rowSlack[i]; sl >= 0 {
			k := next[sl]
			next[sl]++
			rowIdx[k] = int32(i)
			val[k] = 1
		}
	}
	s.A = cscMatrix{colPtr: colPtr, rowIdx: rowIdx, val: val}
	return s
}

// col returns the sparse entries of column j (structural, slack, or
// artificial).
func (s *sparseSolver) col(j int) ([]int32, []float64) {
	if j < s.nReal {
		a, b := s.A.colPtr[j], s.A.colPtr[j+1]
		return s.A.rowIdx[a:b], s.A.val[a:b]
	}
	r := j - s.nReal
	return s.artRows[r : r+1], s.artSign[r : r+1]
}

// valOf is the value of a nonbasic column: the bound its status points at.
func (s *sparseSolver) valOf(j int) float64 {
	if s.stat[j] == atUB {
		return s.ub[j]
	}
	return s.lb[j]
}

// basisCol returns the column at basis position k.
func (s *sparseSolver) basisCol(k int) ([]int32, []float64) { return s.col(s.basis[k]) }

// factorize refactorizes the current basis, emptying the eta file.
func (s *sparseSolver) factorize() error {
	s.inst.Refactorizations.Inc()
	return s.factorBasis()
}

// factorBasis is factorize without the count, for the crash basis of a
// cold solve: that basis is triangular by construction (see crash), so
// factor orders it in its column-singleton pass with no elimination and
// setting it up is bookkeeping, not a factorization.
func (s *sparseSolver) factorBasis() error {
	err := s.lu.factor(s.basisCol)
	s.luOK = err == nil
	return err
}

// computeXB recomputes the basic values xB = B^-1 (rhs - N x_N).
func (s *sparseSolver) computeXB() {
	r := s.rwork
	copy(r, s.rhs)
	for j := 0; j < s.n; j++ {
		if s.stat[j] == basic {
			continue
		}
		v := s.valOf(j)
		if v == 0 {
			continue
		}
		rows, vals := s.col(j)
		for t, ri := range rows {
			r[ri] -= vals[t] * v
		}
	}
	s.lu.ftran(r, s.xB)
}

// computeY computes the simplex multipliers y = c_B^T B^-1.
func (s *sparseSolver) computeY(cost []float64) {
	for i, j := range s.basis {
		s.cwork[i] = cost[j]
	}
	s.lu.btran(s.cwork, s.y)
}

// computeRho computes row r of the basis inverse, e_r^T B^-1, into rho.
func (s *sparseSolver) computeRho(r int, rho []float64) {
	for i := range s.cwork {
		s.cwork[i] = 0
	}
	s.cwork[r] = 1
	s.lu.btran(s.cwork, rho)
}

// reducedCost prices one column against the current multipliers.
func (s *sparseSolver) reducedCost(cost []float64, j int) float64 {
	rows, vals := s.col(j)
	d := cost[j]
	for t, r := range rows {
		d -= s.y[r] * vals[t]
	}
	return d
}

// computeW computes the pivot column w = B^-1 A_j.
func (s *sparseSolver) computeW(j int) {
	rows, vals := s.col(j)
	s.lu.ftranCol(rows, vals, s.w)
}

// pivotBasis records that column q replaced the basic column at position r
// (s.w holds B^-1 A_q): one more eta column, or a refactorization plus
// recomputed basic values once the file is full.
func (s *sparseSolver) pivotBasis(r, q int) error {
	s.basis[r] = q
	s.stat[q] = basic
	if !s.lu.update(r, s.w) {
		return nil
	}
	if err := s.factorize(); err != nil {
		return err
	}
	s.computeXB()
	return nil
}

// objectiveOf evaluates a cost vector at the current point.
func (s *sparseSolver) objectiveOf(cost []float64) float64 {
	obj := 0.0
	for i := 0; i < s.m; i++ {
		obj += cost[s.basis[i]] * s.xB[i]
	}
	for j := 0; j < s.n; j++ {
		if s.stat[j] != basic && cost[j] != 0 {
			obj += cost[j] * s.valOf(j)
		}
	}
	return obj
}

// chooseEntering picks an improving nonbasic column. Returns -1 at
// optimality for the given cost. Under Bland's rule the smallest improving
// index wins, which — paired with the smallest-index leaving tie-break in
// the ratio test — guarantees termination under degeneracy: unlike the
// dense tableau, whose incrementally updated reduced costs accumulate tie-
// breaking noise, the revised simplex reprices exactly every iteration and
// would otherwise cycle through exact degenerate ties deterministically.
func (s *sparseSolver) chooseEntering(cost []float64, bland bool) int {
	best, bestScore := -1, epsCost
	for j := 0; j < s.n; j++ {
		if s.stat[j] == basic || s.lb[j] == s.ub[j] {
			continue
		}
		d := s.reducedCost(cost, j)
		var score float64
		if s.stat[j] == atLB {
			score = -d
		} else {
			score = d
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

// iterate runs primal simplex iterations to optimality for the given cost,
// mirroring the dense tableau's ratio test and anti-cycling switch. phase
// is a second counter the pivots are added to (Phase1Pivots, or nil).
func (s *sparseSolver) iterate(cost []float64, phase *metrics.Counter) error {
	s.unbounded = false
	maxIter := 2000 + 40*(s.m+s.n)
	blandAfter := maxIter / 2
	pivots := 0
	// One bulk flush per iterate call keeps the pivot loop itself free of
	// shared-memory traffic.
	defer func() {
		s.inst.Pivots.Add(int64(pivots))
		phase.Add(int64(pivots))
	}()
	for iter := 0; iter <= maxIter; iter++ {
		bland := iter >= blandAfter
		s.computeY(cost)
		q := s.chooseEntering(cost, bland)
		if q < 0 {
			return nil
		}
		s.computeW(q)
		sigma := 1.0
		if s.stat[q] == atUB {
			sigma = -1
		}
		// Harris two-pass ratio test. Pass 1 finds the exact minimum step
		// and the tolerance-relaxed Harris bound; pass 2 picks, among rows
		// blocking within the Harris bound, the largest pivot magnitude
		// (numerical stability — tiny pivots amplify the whole basis), or
		// the smallest basic index under Bland's rule (termination under
		// degeneracy).
		rowStep := func(i int) (t float64, toUB, ok bool) {
			yv := s.w[i]
			if math.Abs(yv) < epsPivot {
				return 0, false, false
			}
			d := sigma * yv
			bv := s.basis[i]
			if d > 0 { // basic variable decreases toward its lower bound
				t = (s.xB[i] - s.lb[bv]) / d
			} else { // increases toward its upper bound
				if math.IsInf(s.ub[bv], 1) {
					return 0, false, false
				}
				t = (s.ub[bv] - s.xB[i]) / -d
				toUB = true
			}
			if t < 0 {
				t = 0
			}
			return t, toUB, true
		}
		tMin, tHarris := math.Inf(1), math.Inf(1)
		for i := 0; i < s.m; i++ {
			t, _, ok := rowStep(i)
			if !ok {
				continue
			}
			if t < tMin {
				tMin = t
			}
			if rel := t + harrisPrimal/math.Abs(s.w[i]); rel < tHarris {
				tHarris = rel
			}
		}
		tBound := s.ub[q] - s.lb[q]
		if tBound < tMin-epsRatio {
			// Bound flip: the entering variable jumps to its other bound
			// before any basic variable hits a bound.
			if math.IsInf(tBound, 1) {
				s.unbounded = true
				return nil
			}
			for i := 0; i < s.m; i++ {
				s.xB[i] -= sigma * tBound * s.w[i]
			}
			if s.stat[q] == atLB {
				s.stat[q] = atUB
			} else {
				s.stat[q] = atLB
			}
			continue
		}
		if math.IsInf(tMin, 1) {
			s.unbounded = true
			return nil
		}
		leave := -1
		leaveToUB := false
		bestMag := 0.0
		for i := 0; i < s.m; i++ {
			t, toUB, ok := rowStep(i)
			if !ok || t > tHarris {
				continue
			}
			if bland {
				if leave < 0 || s.basis[i] < s.basis[leave] {
					leave, leaveToUB = i, toUB
				}
				continue
			}
			if mag := math.Abs(s.w[i]); mag > bestMag {
				leave, leaveToUB, bestMag = i, toUB, mag
			}
		}
		tMax, _, _ := rowStep(leave)
		if tMax > tBound {
			tMax = tBound
		}

		enterVal := s.valOf(q) + sigma*tMax
		for i := 0; i < s.m; i++ {
			if i != leave {
				s.xB[i] -= sigma * tMax * s.w[i]
			}
		}
		leaving := s.basis[leave]
		if leaveToUB {
			s.stat[leaving] = atUB
		} else {
			s.stat[leaving] = atLB
		}
		s.xB[leave] = enterVal
		pivots++
		if err := s.pivotBasis(leave, q); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w (m=%d n=%d sparse)", ErrIterationLimit, s.m, s.n)
}

// Solve solves the LP relaxation of p (integer markers ignored) with the
// sparse revised simplex.
func Solve(p *Problem) (*Solution, error) {
	sol, _, err := newSparseSolver(p).solveLP(nil, nil, nil, nil)
	return sol, err
}

// solveLP solves the LP relaxation under the given bound overrides,
// warm-starting from a previous basis when one is supplied and otherwise
// (or when the warm start fails) crashing from point, one value per
// structural column or nil. It returns the solution together with the
// optimal basis (nil unless Optimal) for warm-starting children.
func (s *sparseSolver) solveLP(lbOver, ubOver []float64, warm *basisState, point []float64) (*Solution, *basisState, error) {
	for j, v := range s.p.vars {
		s.lbX[j], s.ubX[j] = v.lb, v.ub
	}
	if lbOver != nil {
		copy(s.lbX, lbOver)
	}
	if ubOver != nil {
		copy(s.ubX, ubOver)
	}
	for j := 0; j < s.nStruct; j++ {
		if s.lbX[j] > s.ubX[j] {
			return &Solution{Status: Infeasible}, nil, nil
		}
	}
	for j := s.nStruct; j < s.nReal; j++ {
		s.lbX[j], s.ubX[j] = 0, Inf
	}
	for j := s.nReal; j < s.n; j++ {
		s.lbX[j], s.ubX[j] = 0, 0
	}
	copy(s.lb, s.lbX)
	copy(s.ub, s.ubX)
	if warm != nil {
		sol, state, err := s.warmSolve(warm)
		if err == nil {
			return sol, state, nil
		}
		// Numerical trouble on the warm path (singular refactorization,
		// stalled dual loop): fall back to a cold solve.
		s.inst.ColdFallbacks.Inc()
	}
	return s.coldSolve(point)
}

// coldSolve is the two-phase primal solve from the crash basis around
// point; phase 1 runs only when the crash left an artificial nonzero.
func (s *sparseSolver) coldSolve(point []float64) (*Solution, *basisState, error) {
	needPhase1, err := s.crash(point)
	if err != nil {
		return nil, nil, err
	}
	if needPhase1 {
		if err := s.iterate(s.phase1Cost, s.inst.Phase1Pivots); err != nil {
			return nil, nil, err
		}
		if s.unbounded {
			return nil, nil, fmt.Errorf("lp: phase-1 reported unbounded (numerical failure)")
		}
		// Phase 1 runs on perturbed bounds and stops at a reduced-cost
		// tolerance, so a feasible problem can terminate with a residual
		// artificial sum of a few 1e-7 — well separated from genuine
		// infeasibility, which shows up at the scale of the problem data.
		// Marginal residues pass through: the exact-bounds restore repairs
		// them or, failing that, proves the real infeasibility dually.
		if s.objectiveOf(s.phase1Cost) > phase1Tol {
			return &Solution{Status: Infeasible}, nil, nil
		}
	}
	// Freeze artificials at zero; degenerate basic ones may remain.
	for i := 0; i < s.m; i++ {
		art := s.nReal + i
		s.ub[art] = 0
		if s.stat[art] != basic {
			s.stat[art] = atLB
		}
	}
	// Phase 2 on the perturbed bounds, then remove the perturbation.
	if err := s.iterate(s.phase2Cost, nil); err != nil {
		return nil, nil, err
	}
	if s.unbounded {
		return &Solution{Status: Unbounded}, nil, nil
	}
	return s.restoreAndPolish()
}

// crash sets up the starting basis of a cold solve around point: one value
// per structural column, clamped into this solve's exact bounds, or every
// column at its lower bound when point is nil.
//
//   - A nonbasic column sits at the bound the point sits on.
//   - Each equality row takes as basic the first column the point lifts off
//     its lower bound (on a restricted master: the flow's path) whose value
//     stays in its box once the row binds. A row the point leaves short
//     (the node's bounds cut its path) takes the first column that can make
//     up the difference. Without a point no column is lifted and no row is
//     repaired: the basis is slacks and artificials, the seed's crash.
//   - A column the point leaves strictly between its bounds (U) is basic on
//     its tightest row, the one with the least slack per unit of
//     coefficient (the most loaded channel), or sits at its nearer bound
//     when that would take it out of its box.
//   - Slacks fill the remaining rows; an artificial goes only on a row the
//     start still leaves violated, or on an equality row nothing claimed.
//
// The row residuals follow each column that turns basic, so U binds on the
// most loaded channel of the route set the basis really holds. A structural
// column turns basic only if it touches no row an earlier one took, so the
// basis is triangular, factors without elimination, and gives each basic
// column the in-box value it was bound at. A feasible point is thus a
// feasible start — on a master an integer incumbent is a vertex, and one
// the node's bounds cut is repaired into a route set — and phase 1 has
// nothing to do. It reports whether an artificial is left nonzero.
func (s *sparseSolver) crash(point []float64) (bool, error) {
	at := func(j int) float64 {
		if point == nil || !(point[j] > s.lbX[j]) { // NaN sits at the lower bound too
			return s.lbX[j]
		}
		return math.Min(point[j], s.ubX[j])
	}
	for j := 0; j < s.n; j++ {
		s.stat[j] = atLB
	}
	r := s.rwork // rhs - A x at the start: how far each row is from binding
	copy(r, s.rhs)
	for j := 0; j < s.nStruct; j++ {
		x := at(j)
		if x > s.lbX[j] && x == s.ubX[j] {
			s.stat[j] = atUB
		}
		if x != 0 {
			rows, vals := s.col(j)
			for t, i := range rows {
				r[i] -= vals[t] * x
			}
		}
	}
	taken := s.taken
	for i := range taken {
		taken[i] = false
	}
	free := func(j int) bool {
		rows, _ := s.col(j)
		for _, i := range rows {
			if taken[i] {
				return false
			}
		}
		return true
	}
	// bind makes j basic on row i, where its coefficient is a, at the value
	// that makes the row bind, and moves the residuals of j's rows with it.
	bind := func(i, j int, a float64) {
		d := r[i] / a
		taken[i], s.basis[i], s.stat[j] = true, j, basic
		rows, vals := s.col(j)
		for t, k := range rows {
			r[k] -= vals[t] * d
		}
	}
	for _, lifted := range []bool{true, false} {
		for j := 0; j < s.nStruct; j++ {
			x := at(j)
			if s.stat[j] == basic || (x > s.lbX[j]) != lifted || s.lbX[j] == s.ubX[j] || !free(j) {
				continue
			}
			rows, vals := s.col(j)
			for t, i := range rows {
				a := vals[t]
				if s.rowSlack[i] >= 0 || math.Abs(a) <= epsPivot || !lifted && (point == nil || math.Abs(r[i]) <= epsFeas) {
					continue
				}
				if v := x + r[i]/a; v >= s.lbX[j] && v <= s.ubX[j] {
					bind(int(i), j, a)
					break
				}
			}
		}
	}
	for j := 0; j < s.nStruct; j++ {
		x := at(j)
		if s.stat[j] == basic || x == s.lbX[j] || x == s.ubX[j] {
			continue
		}
		best, bestA, least := -1, 0.0, math.Inf(1)
		if free(j) {
			rows, vals := s.col(j)
			for t, i := range rows {
				slack := r[i]
				if s.p.cons[i].sense == EQ {
					slack = -math.Abs(r[i])
				}
				if a := math.Abs(vals[t]); a > epsPivot && slack/a < least {
					best, bestA, least = int(i), vals[t], slack/a
				}
			}
		}
		v := x // where j sits when it cannot be basic: its nearer bound
		if best >= 0 {
			if v = x + r[best]/bestA; v >= s.lbX[j] && v <= s.ubX[j] {
				bind(best, j, bestA)
				continue
			}
		}
		if v-s.lbX[j] > s.ubX[j]-v {
			s.stat[j] = atUB
		}
	}

	for i := range s.basis {
		if !taken[i] {
			s.artSign[i] = 1
			s.basis[i] = s.nReal + i
			if sl := s.rowSlack[i]; sl >= 0 {
				s.basis[i] = sl
			}
			s.stat[s.basis[i]] = basic
		}
	}
	s.widen(point != nil)
	if err := s.factorBasis(); err != nil {
		return false, err
	}
	s.computeXB()

	// A row whose slack would go negative, and an equality row, gets an
	// artificial signed to hold the row's residual at a nonnegative value.
	refactor := false
	for i, j := range s.basis {
		if taken[i] || j < s.nReal && s.xB[i] >= s.lb[j] {
			continue
		}
		res := s.xB[i]
		if j < s.nReal {
			s.stat[j] = atLB
			s.basis[i] = s.nReal + i
			s.stat[s.basis[i]] = basic
			refactor = true
		}
		if res < 0 {
			s.artSign[i] = -1
			refactor = true
		}
	}
	if refactor {
		if err := s.factorBasis(); err != nil {
			return false, err
		}
		s.computeXB()
	}
	for i, j := range s.basis {
		if j >= s.nReal && s.xB[i] > epsFeas {
			return true, nil
		}
	}
	return false, nil
}

// widen sets the working bounds of a cold solve. Anti-degeneracy
// perturbation: every finite real-column bound expands outward by a tiny
// deterministic column-specific amount. The masters this solver sees are
// massively degenerate (choose-one rows over zero-loaded channel rows), and
// exact repricing stalls for tens of thousands of zero-step pivots on exact
// ties; distinct perturbed bounds make ratio-test steps strictly positive.
// The expansion only relaxes the feasible set, so a feasible exact problem
// stays feasible; restoreAndPolish removes the perturbation before
// extraction.
//
// With a point (sitting), a nonbasic column keeps the bound it sits on
// exact: widening it would move every basic value in its rows, and an
// equality row's basic path would absorb its siblings' offsets and leave
// its box. Without one, the offsets on the lower bounds are what make the
// all-slack start nondegenerate. Artificials are free in [0, inf) until
// phase 1 ends.
func (s *sparseSolver) widen(sitting bool) {
	for j := 0; j < s.nReal; j++ {
		d := 1e-7 * (0.5 + noise(j))
		s.lb[j], s.ub[j] = s.lbX[j], s.ubX[j]
		if !sitting || s.stat[j] != atLB {
			s.lb[j] -= d * (1 + math.Abs(s.lbX[j]))
		}
		if !math.IsInf(s.ubX[j], 1) && (!sitting || s.stat[j] != atUB) {
			s.ub[j] += d * (1 + math.Abs(s.ubX[j]))
		}
	}
	for j := s.nReal; j < s.n; j++ {
		s.lb[j], s.ub[j] = 0, Inf
	}
}

// restoreAndPolish swaps the exact bounds back in after a perturbed solve,
// repairs the tiny primal violations this introduces with dual pivots, and
// re-polishes against the exact objective. A dual ray here means the exact
// problem is infeasible even though its perturbed relaxation was not (the
// perturbation only ever widens bounds).
func (s *sparseSolver) restoreAndPolish() (*Solution, *basisState, error) {
	copy(s.lb, s.lbX)
	copy(s.ub, s.ubX)
	s.computeXB()
	infeasible, err := s.dualIterate()
	if err != nil {
		return nil, nil, err
	}
	if infeasible {
		return &Solution{Status: Infeasible}, nil, nil
	}
	return s.finishPhase2()
}

// warmSolve restores a parent basis under the current (child) bounds and
// repairs primal feasibility with dual simplex: the parent's optimal basis
// stays dual feasible after a bound change, so typically only a handful of
// pivots are needed.
func (s *sparseSolver) warmSolve(warm *basisState) (*Solution, *basisState, error) {
	reuse := s.luOK && slices.Equal(s.basis, warm.basis) && slices.Equal(s.artSign, warm.artSign)
	copy(s.basis, warm.basis)
	copy(s.stat, warm.stat)
	copy(s.artSign, warm.artSign)
	// A nonbasic status can only reference a finite bound.
	for j := 0; j < s.n; j++ {
		if s.stat[j] == atUB && math.IsInf(s.ub[j], 1) {
			s.stat[j] = atLB
		}
	}
	if !reuse {
		if err := s.factorize(); err != nil {
			return nil, nil, err
		}
	}
	s.computeXB()
	infeasible, err := s.dualIterate()
	if err != nil {
		return nil, nil, err
	}
	if infeasible {
		return &Solution{Status: Infeasible}, nil, nil
	}
	return s.finishPhase2()
}

// dualIterate restores primal feasibility while preserving dual
// feasibility: repeatedly drive the most bound-violating basic variable to
// its violated bound, entering the column that keeps reduced costs signed.
// Returns infeasible=true when a violated row admits no entering column (a
// dual ray: the child LP is empty).
func (s *sparseSolver) dualIterate() (infeasible bool, err error) {
	m := s.m
	// The repair either converges in a modest number of pivots or storms:
	// on the min-max masters one pivot can spray a bound violation across
	// every row coupled through U, after which the dual thrashes. A tight
	// budget with a divergence bail-out keeps failed repairs cheap — the
	// caller falls back to a cold solve — while successful ones stay fast.
	maxIter := 4*m + 100
	blandAfter := maxIter / 2
	pivots := 0
	defer func() { s.inst.Pivots.Add(int64(pivots)) }()
	initialTot := -1.0
	for iter := 0; iter < maxIter; iter++ {
		bland := iter >= blandAfter
		// Leaving row: steepest-edge flavored — weigh each violation by the
		// inverse norm of its row of the basis inverse (one btran per
		// violated row), preferring the repair that moves the basis least
		// per unit of progress. Max plain violation storms on these
		// masters: rows coupled through U have huge inverse rows, and
		// repairing them first sprays the violation everywhere. Under the
		// anti-cycling switch the first violated row wins instead.
		r, sigma, worst := -1, 0.0, 0.0
		maxViol, total := 0.0, 0.0
		for i := 0; i < m; i++ {
			bv := s.basis[i]
			d, sg := s.lb[bv]-s.xB[i], -1.0
			if d2 := s.xB[i] - s.ub[bv]; d2 > d {
				d, sg = d2, 1
			}
			if d <= epsFeas {
				continue
			}
			total += d
			if d > maxViol {
				maxViol = d
			}
			if bland {
				if r < 0 {
					r, sigma = i, sg
				}
				continue
			}
			s.computeRho(i, s.rhoTry)
			norm2 := 0.0
			for _, v := range s.rhoTry {
				norm2 += v * v
			}
			if score := d * d / norm2; score > worst {
				r, sigma, worst = i, sg, score
				s.rho, s.rhoTry = s.rhoTry, s.rho
			}
		}
		if r < 0 {
			return false, nil // primal feasible
		}
		if initialTot < 0 {
			initialTot = total
		} else if total > 100*initialTot+1 {
			return false, fmt.Errorf("lp: dual repair diverging (violation %.3g from %.3g)", total, initialTot)
		}
		// Ratios are priced against the perturbed costs: exact duals put
		// whole tie classes at ratio zero on degenerate masters, and a
		// deterministic choice over exact ties cycles. Eligibility and the
		// pivot algebra never involve the costs, and finishPhase2
		// re-polishes against the exact objective afterwards.
		s.computeY(s.costP)
		if bland {
			s.computeRho(r, s.rho)
		}
		rho := s.rho
		// Entering column: Harris two-pass dual ratio test. Pass 1 finds
		// the tolerance-relaxed minimum ratio (each pivot may give away up
		// to harrisDual of dual feasibility); pass 2 picks the largest
		// |alpha| within the bound — small alphas are the failure mode, a
		// 1e-7 pivot would turn a unit bound violation into a 1e7-scale
		// basis swing — or the smallest index under Bland's rule.
		cands := s.cands[:0]
		tinyEligible := 0
		phi := math.Inf(1)
		for j := 0; j < s.nReal; j++ {
			if s.stat[j] == basic || s.lb[j] == s.ub[j] {
				continue
			}
			rows, vals := s.col(j)
			alpha := 0.0
			for t, ri := range rows {
				alpha += rho[ri] * vals[t]
			}
			if s.stat[j] == atLB {
				if sigma*alpha <= 0 {
					continue
				}
			} else if sigma*alpha >= 0 {
				continue
			}
			if math.Abs(alpha) < epsAlpha {
				tinyEligible++ // right sign, but numerically unusable
				continue
			}
			absA := math.Abs(alpha)
			absD := math.Abs(s.reducedCost(s.costP, j))
			cands = append(cands, dualCand{j, alpha, absD / absA})
			if rel := (absD + harrisDual) / absA; rel < phi {
				phi = rel
			}
		}
		if len(cands) == 0 {
			// No usable entering column. A residual violation within the
			// overall feasibility tolerance (perturbation leftovers) is
			// accepted; a sign-eligible column lost to the alpha threshold
			// means numerical trouble, not proof — let the caller re-solve
			// cold. Only a clean empty set is a genuine dual ray.
			if maxViol <= 1e-6 {
				return false, nil
			}
			if tinyEligible > 0 {
				return false, fmt.Errorf("lp: dual entering candidates numerically unusable")
			}
			return true, nil
		}
		q, bestMag := -1, 0.0
		for _, c := range cands {
			if c.ratio > phi {
				continue
			}
			if bland {
				if q < 0 || c.j < q {
					q = c.j
				}
				continue
			}
			if mag := math.Abs(c.alpha); mag > bestMag {
				q, bestMag = c.j, mag
			}
		}
		s.computeW(q)
		alpha := s.w[r]
		if math.Abs(alpha) < epsPivot {
			return false, fmt.Errorf("lp: dual pivot too small")
		}
		bound := s.lb[s.basis[r]]
		if sigma > 0 {
			bound = s.ub[s.basis[r]]
		}
		delta := (s.xB[r] - bound) / alpha
		for i := 0; i < m; i++ {
			if i != r {
				s.xB[i] -= s.w[i] * delta
			}
		}
		leaving := s.basis[r]
		if sigma > 0 {
			s.stat[leaving] = atUB
		} else {
			s.stat[leaving] = atLB
		}
		s.xB[r] = s.valOf(q) + delta
		pivots++
		if err := s.pivotBasis(r, q); err != nil {
			return false, err
		}
	}
	return false, fmt.Errorf("lp: dual simplex iteration limit (m=%d n=%d)", s.m, s.n)
}

// finishPhase2 runs the real objective to optimality and extracts the
// solution plus a basis snapshot for warm-starting children.
func (s *sparseSolver) finishPhase2() (*Solution, *basisState, error) {
	if err := s.iterate(s.phase2Cost, nil); err != nil {
		return nil, nil, err
	}
	if s.unbounded {
		return &Solution{Status: Unbounded}, nil, nil
	}
	x := make([]float64, s.nStruct)
	for j := 0; j < s.nStruct; j++ {
		if s.stat[j] != basic {
			x[j] = s.valOf(j)
		}
	}
	for i := 0; i < s.m; i++ {
		if s.basis[i] < s.nStruct {
			x[s.basis[i]] = s.xB[i]
		}
	}
	obj := 0.0
	for j, v := range s.p.vars {
		obj += v.cost * x[j]
	}
	state := &basisState{
		basis:   append([]int(nil), s.basis...),
		stat:    append([]varStatus(nil), s.stat...),
		artSign: append([]float64(nil), s.artSign...),
	}
	return &Solution{Status: Optimal, Objective: obj, X: x}, state, nil
}

// noise is a deterministic pseudo-random value in (0, 1) per column index
// (golden-ratio hashing), used to scale the anti-degeneracy perturbations.
func noise(j int) float64 {
	const phi = 0.618033988749895
	f := float64(j+1) * phi
	return f - math.Floor(f)
}
