package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// testBasis is a basis handed to the kernel the way the solver does it:
// m sparse columns by position.
type testBasis struct {
	m    int
	rows [][]int32
	vals [][]float64
}

func (b *testBasis) col(k int) ([]int32, []float64) { return b.rows[k], b.vals[k] }

// dense expands the basis into a row-major m x m matrix.
func (b *testBasis) dense() []float64 {
	a := make([]float64, b.m*b.m)
	for k := 0; k < b.m; k++ {
		for p, r := range b.rows[k] {
			a[int(r)*b.m+k] = b.vals[k][p]
		}
	}
	return a
}

// gaussJordanInverse is the reference the kernel is checked against: the
// dense inverse by Gauss-Jordan elimination with full partial pivoting (the
// algorithm the kernel replaced). ok is false for a singular matrix.
func gaussJordanInverse(a []float64, m int) (inv []float64, ok bool) {
	mat := append([]float64(nil), a...)
	inv = make([]float64, m*m)
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	swap := func(x []float64, i, j int) {
		for k := 0; k < m; k++ {
			x[i*m+k], x[j*m+k] = x[j*m+k], x[i*m+k]
		}
	}
	for c := 0; c < m; c++ {
		pr, pv := -1, 1e-11
		for i := c; i < m; i++ {
			if v := math.Abs(mat[i*m+c]); v > pv {
				pr, pv = i, v
			}
		}
		if pr < 0 {
			return nil, false
		}
		swap(mat, pr, c)
		swap(inv, pr, c)
		d := 1 / mat[c*m+c]
		for k := 0; k < m; k++ {
			mat[c*m+k] *= d
			inv[c*m+k] *= d
		}
		for i := 0; i < m; i++ {
			if f := mat[i*m+c]; i != c && f != 0 {
				for k := 0; k < m; k++ {
					mat[i*m+k] -= f * mat[c*m+k]
					inv[i*m+k] -= f * inv[c*m+k]
				}
			}
		}
	}
	return inv, true
}

// randomBasis draws a sparse nonsingular basis: a scaled permutation matrix
// (so a transversal exists) plus extra off-transversal entries per column,
// with a few unit singleton columns mixed in the way slacks are. Matrices
// the reference finds singular or badly conditioned are redrawn.
func randomBasis(rng *rand.Rand, m, extra int) *testBasis {
	for {
		b := &testBasis{m: m, rows: make([][]int32, m), vals: make([][]float64, m)}
		perm := rng.Perm(m)
		for k := 0; k < m; k++ {
			entries := map[int32]float64{int32(perm[k]): float64(1+rng.Intn(9)) * float64(1-2*rng.Intn(2))}
			if rng.Intn(4) != 0 { // three in four columns are not singletons
				for e := 0; e < extra; e++ {
					entries[int32(rng.Intn(m))] += float64(rng.Intn(19) - 9)
				}
			}
			for r := int32(0); r < int32(m); r++ { // ascending rows, like the CSC
				if v := entries[r]; v != 0 {
					b.rows[k] = append(b.rows[k], r)
					b.vals[k] = append(b.vals[k], v)
				}
			}
		}
		if inv, ok := gaussJordanInverse(b.dense(), m); ok && maxAbs(inv) < 1e4 {
			return b
		}
	}
}

// masterBases solves a restricted-master-shaped LP (choose-one EQ rows,
// min-max LE rows sharing the dense U column) and collects the bases the
// solver actually factorizes: the optimal root basis and the optimal basis
// of every one-binary-fixed child, with slack, artificial and structural
// columns mixed as the simplex left them.
func masterBases(t *testing.T, nf, np, nc int, seed int64) []*testBasis {
	t.Helper()
	p := buildMaster(nf, np, nc, seed)
	s := newSparseSolver(p)
	snapshot := func() *testBasis {
		b := &testBasis{m: s.m, rows: make([][]int32, s.m), vals: make([][]float64, s.m)}
		for k := range s.basis {
			rows, vals := s.basisCol(k)
			b.rows[k] = append([]int32(nil), rows...)
			b.vals[k] = append([]float64(nil), vals...)
		}
		return b
	}
	sol, state, err := s.solveLP(nil, nil, nil, nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("master root: %v %v", sol, err)
	}
	out := []*testBasis{snapshot()}
	for j := 1; j < len(p.vars) && len(out) < 6; j += 3 {
		lb := make([]float64, len(p.vars))
		ub := make([]float64, len(p.vars))
		for v := range p.vars {
			lb[v], ub[v] = p.vars[v].lb, p.vars[v].ub
		}
		lb[j] = 1
		sol, _, err := s.solveLP(lb, ub, state, nil)
		if err != nil {
			t.Fatalf("master child %d: %v", j, err)
		}
		if sol.Status == Optimal {
			out = append(out, snapshot())
		}
	}
	return out
}

func maxAbs(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// checkSolves is the one checker every case runs: ftran of every unit
// vector and of random sparse right-hand sides, and btran of every unit
// vector (the rows of the inverse the dual ratio test reads), must agree
// with the dense reference inverse to 1e-9 relative.
func checkSolves(t *testing.T, f *luFactor, b *testBasis, rng *rand.Rand) {
	t.Helper()
	m := b.m
	inv, ok := gaussJordanInverse(b.dense(), m)
	if !ok {
		t.Fatal("reference found the basis singular")
	}
	x, w, c, y := make([]float64, m), make([]float64, m), make([]float64, m), make([]float64, m)
	for trial := 0; trial < 2*m; trial++ {
		a := make([]float64, m)
		if trial < m {
			a[trial] = 1 // unit right-hand sides: the columns of the inverse
		} else {
			for e := 0; e < 1+rng.Intn(6); e++ {
				a[rng.Intn(m)] = float64(rng.Intn(41) - 20)
			}
		}
		copy(x, a)
		f.ftran(x, w)
		if maxAbs(x) != 0 {
			t.Fatal("ftran left its work vector dirty")
		}
		want := make([]float64, m)
		for k := 0; k < m; k++ {
			for i := 0; i < m; i++ {
				want[k] += inv[k*m+i] * a[i]
			}
		}
		scale := 1 + maxAbs(want)
		for k := range want {
			if math.Abs(w[k]-want[k]) > 1e-9*scale {
				t.Fatalf("ftran trial %d position %d: got %g, reference %g", trial, k, w[k], want[k])
			}
		}
	}
	for r := 0; r < m; r++ {
		for i := range c {
			c[i] = 0
		}
		c[r] = 1
		f.btran(c, y)
		scale := 1 + maxAbs(inv[r*m:(r+1)*m])
		for i := 0; i < m; i++ {
			if math.Abs(y[i]-inv[r*m+i]) > 1e-9*scale {
				t.Fatalf("btran(e_%d) row %d: got %g, reference %g", r, i, y[i], inv[r*m+i])
			}
		}
	}
}

// TestLUSolvesMatchDenseReference runs the checker over random sparse
// bases and over bases drawn from restricted masters.
func TestLUSolvesMatchDenseReference(t *testing.T) {
	type tc struct {
		name  string
		bases func(t *testing.T, rng *rand.Rand) []*testBasis
	}
	random := func(m, extra, n int) func(*testing.T, *rand.Rand) []*testBasis {
		return func(_ *testing.T, rng *rand.Rand) []*testBasis {
			out := make([]*testBasis, n)
			for i := range out {
				out[i] = randomBasis(rng, m, extra)
			}
			return out
		}
	}
	master := func(nf, np, nc int, seed int64) func(*testing.T, *rand.Rand) []*testBasis {
		return func(t *testing.T, _ *rand.Rand) []*testBasis { return masterBases(t, nf, np, nc, seed) }
	}
	cases := []tc{
		{"random/1x1", random(1, 0, 3)},
		{"random/5-dense", random(5, 4, 20)},
		{"random/40-sparse", random(40, 2, 10)},
		{"random/40-bump", random(40, 5, 10)},
		{"random/150-sparse", random(150, 2, 3)},
		{"master/6x3x16", master(6, 3, 16, 1)},
		{"master/12x4x45", master(12, 4, 45, 2)},
		{"master/20x5x90", master(20, 5, 90, 3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for _, b := range c.bases(t, rng) {
				f := newLUFactor(b.m)
				if err := f.factor(b.col); err != nil {
					t.Fatalf("factor: %v", err)
				}
				checkSolves(t, f, b, rng)
			}
		})
	}
}

// TestLUEtaUpdatesMatchFreshFactorization replaces k basis columns one
// pivot at a time, the way the simplex does (refactorizing when update
// reports the file full), and checks the updated kernel against both the
// dense reference and a fresh factorization of the final basis. The k
// values straddle the refactorization boundary.
func TestLUEtaUpdatesMatchFreshFactorization(t *testing.T) {
	for _, k := range []int{1, refactorEvery - 1, refactorEvery, refactorEvery + 1} {
		rng := rand.New(rand.NewSource(int64(k)))
		const m = 30
		b := randomBasis(rng, m, 3)
		f := newLUFactor(m)
		if err := f.factor(b.col); err != nil {
			t.Fatal(err)
		}
		w := make([]float64, m)
		refactored := 0
		for done := 0; done < k; {
			// A random sparse entering column; pivot where it is largest
			// so the updated basis stays well conditioned.
			var rows []int32
			var vals []float64
			for r := int32(0); r < m; r++ {
				if rng.Intn(6) == 0 {
					rows, vals = append(rows, r), append(vals, float64(rng.Intn(19)-9))
				}
			}
			f.ftranCol(rows, vals, w)
			r := 0
			for i := range w {
				if math.Abs(w[i]) > math.Abs(w[r]) {
					r = i
				}
			}
			if math.Abs(w[r]) < 0.5 {
				continue
			}
			b.rows[r], b.vals[r] = rows, vals
			if f.update(r, w) {
				if err := f.factor(b.col); err != nil {
					t.Fatalf("k=%d: refactorization after %d updates: %v", k, done+1, err)
				}
				refactored++
			}
			done++
		}
		if want := k / refactorEvery; refactored != want {
			t.Fatalf("k=%d: %d refactorizations, want %d", k, refactored, want)
		}
		if want := k % refactorEvery; f.nEta != want {
			t.Fatalf("k=%d: eta file holds %d columns, want %d", k, f.nEta, want)
		}
		checkSolves(t, f, b, rng)
		fresh := newLUFactor(m)
		if err := fresh.factor(b.col); err != nil {
			t.Fatal(err)
		}
		x, wf := make([]float64, m), make([]float64, m)
		for i := 0; i < m; i++ {
			x[i] = 1
			f.ftran(x, w)
			x[i] = 1
			fresh.ftran(x, wf)
			for p := range w {
				if math.Abs(w[p]-wf[p]) > 1e-9*(1+maxAbs(wf)) {
					t.Fatalf("k=%d: ftran(e_%d)[%d] = %g with etas, %g fresh", k, i, p, w[p], wf[p])
				}
			}
		}
	}
}

// TestLUSingularBasis checks both ways a basis can fail to factor.
func TestLUSingularBasis(t *testing.T) {
	type column struct {
		rows []int32
		vals []float64
	}
	c := func(pairs ...float64) column { // row, value, row, value, ...
		var col column
		for i := 0; i < len(pairs); i += 2 {
			col.rows, col.vals = append(col.rows, int32(pairs[i])), append(col.vals, pairs[i+1])
		}
		return col
	}
	build := func(cols ...column) *testBasis {
		b := &testBasis{m: len(cols)}
		for _, col := range cols {
			b.rows, b.vals = append(b.rows, col.rows), append(b.vals, col.vals)
		}
		return b
	}
	cases := []struct {
		name string
		b    *testBasis
	}{
		{"structural/duplicate-singletons", build(c(0, 1), c(0, 1), c(2, 1))},
		{"structural/empty-column", build(c(0, 1), c(), c(1, 1, 2, 1))},
		{"structural/row-starved", build(c(0, 1, 1, 1), c(0, 2, 1, 3), c(0, 1, 1, 5))},
		{"structural/rows-share-one-column", build(c(0, 1, 1, 1, 2, 1), c(0, 1, 3, 1), c(0, 2, 3, 1), c(0, 1, 3, 2))},
		{"numerical/singular-block", build(c(0, 1, 1, 1, 2, 1, 3, 1), c(0, 1, 1, 2, 2, 1, 3, 1), c(0, 2, 1, 1), c(0, 1, 1, 3))},
		{"numerical/proportional-columns", build(c(0, 1, 1, 2, 2, 3), c(0, 2, 1, 4, 2, 6), c(0, 1, 1, 1, 2, 1))},
		{"numerical/cancelling-rows", build(c(0, 1, 1, 1, 2, 2), c(0, 1, 1, 2, 2, 3), c(0, 1, 1, 3, 2, 4))},
		{"numerical/tiny-pivot", build(c(0, 1e-12), c(1, 1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := gaussJordanInverse(tc.b.dense(), tc.b.m); ok {
				t.Fatal("reference inverts the case: it is not singular")
			}
			f := newLUFactor(tc.b.m)
			if err := f.factor(tc.b.col); !errors.Is(err, ErrSingularBasis) {
				t.Fatalf("factor returned %v, want ErrSingularBasis", err)
			}
			if maxAbs(f.x) != 0 {
				t.Fatal("failed factorization left the accumulator dirty")
			}
		})
	}
}

// TestLUDeterministic factors one basis in a fresh kernel and in one that
// has factored something else first: pivot order has no hidden state (no
// map iteration, no leftovers), so ftran output is bit-identical.
func TestLUDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, b := range append(masterBases(t, 12, 4, 45, 2), randomBasis(rng, 45, 4)) {
		m := b.m
		fresh, used := newLUFactor(m), newLUFactor(m)
		if err := used.factor(randomBasis(rng, m, 5).col); err != nil {
			t.Fatal(err)
		}
		ones := make([]float64, m)
		for i := range ones {
			ones[i] = 1
		}
		used.update(0, ones) // an eta column the next factor must discard
		for _, f := range []*luFactor{fresh, used} {
			if err := f.factor(b.col); err != nil {
				t.Fatal(err)
			}
		}
		x, w1, w2 := make([]float64, m), make([]float64, m), make([]float64, m)
		for i := 0; i < m; i++ {
			x[i], x[(i+7)%m] = 3, -1
			fresh.ftran(x, w1)
			x[i], x[(i+7)%m] = 3, -1
			used.ftran(x, w2)
			for k := range w1 {
				if math.Float64bits(w1[k]) != math.Float64bits(w2[k]) {
					t.Fatalf("ftran %d position %d: %x vs %x", i, k, math.Float64bits(w1[k]), math.Float64bits(w2[k]))
				}
			}
		}
	}
}

// TestWarmSolveAllocations pins the allocation-free pivot loops: a warm
// solveLP on a master-shaped problem — refactorization, dual repair, primal
// polish, eta appends — allocates only what it returns: the Solution and
// its X, the basisState and its three slices.
func TestWarmSolveAllocations(t *testing.T) {
	p := buildMaster(10, 3, 40, 2)
	s := newSparseSolver(p)
	sol, state, err := s.solveLP(nil, nil, nil, nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("root: %v %v", sol, err)
	}
	// Fix a fractional binary up, as branch and bound would: the first one
	// whose child the dual repair actually reaches (a repair that gives up
	// allocates its error and re-solves cold, which is not the path pinned
	// here).
	fallbacks := metrics.New().Counter("cold")
	s.inst.ColdFallbacks = fallbacks
	lb, ub := make([]float64, len(p.vars)), make([]float64, len(p.vars))
	branch := -1
	for j, v := range sol.X {
		if !p.vars[j].integer || math.Min(v-math.Floor(v), math.Ceil(v)-v) < 1e-6 {
			continue
		}
		for k, pv := range p.vars {
			lb[k], ub[k] = pv.lb, pv.ub
		}
		lb[j] = 1
		// Twice: from the root's factors as they stand, then from a
		// refactorization of the root basis.
		before, ok := fallbacks.Value(), true
		for rep := 0; rep < 2; rep++ {
			child, _, err := s.solveLP(lb, ub, state, nil)
			ok = ok && err == nil && child.Status == Optimal
		}
		if ok && fallbacks.Value() == before {
			branch = j
			break
		}
	}
	if branch < 0 {
		t.Fatal("no fractional binary of the master root warm-solves; pick another seed")
	}
	before := fallbacks.Value()
	allocs := testing.AllocsPerRun(10, func() {
		child, _, err := s.solveLP(lb, ub, state, nil)
		if err != nil || child.Status != Optimal {
			t.Fatalf("child: %v %v", child, err)
		}
	})
	if s.lu.nEta == 0 {
		t.Fatal("the warm solve made no pivots; the pin would be vacuous")
	}
	if n := fallbacks.Value(); n != before {
		t.Fatalf("%d warm solves fell back to a cold solve", n-before)
	}
	if allocs > 6 {
		t.Fatalf("warm solveLP allocates %.0f objects per run, want at most 6 (the returned Solution and basisState)", allocs)
	}
}
