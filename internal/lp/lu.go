package lp

import "math"

// luThreshold is the threshold-partial-pivoting factor: in a bump column
// any row within this fraction of the largest candidate magnitude may be
// chosen as the pivot, which lets the sparsest such row win.
const luThreshold = 0.1

// luFactor holds a sparse LU factorization of an m x m basis matrix B plus
// a product-form eta file for the pivots made since it was computed. The
// simplex loops reach the basis only through ftran (solve B w = a) and
// btran (solve y^T B = c^T).
//
// Elimination step t pivots row prow[t] of basis position pcol[t]. L is
// kept as one column of multipliers per step, addressed by original row; U
// as one column per step holding the entries that landed in rows pivoted
// earlier (also addressed by original row) with the diagonal apart. Both
// solves therefore run over column storage only: ftran in axpy form, which
// skips zero multiplicands, and btran in dot-product form.
//
// Every slice is scratch owned by the factor: sized by newLUFactor or
// grown to the largest basis seen, and reused by every refactorization.
type luFactor struct {
	m int

	prow, pcol []int32 // step -> pivot row / basis position
	rowStep    []int32 // row -> step that pivots it, -1 while unassigned

	lPtr   []int32 // step t owns lIdx/lVal[lPtr[t]:lPtr[t+1]]
	lIdx   []int32
	lVal   []float64
	lSteps []int32 // steps with a non-empty L column, ascending

	uPtr  []int32
	uIdx  []int32
	uVal  []float64
	uDiag []float64

	// Eta file: eta e pivots basis position etaPos[e] on etaPiv[e]; the
	// rest of its column is eta[e*m:(e+1)*m], stored dense with a zero at
	// the pivot position. On the min-max masters the entering column
	// B^-1 a_q is two-thirds full (every channel row is coupled through U),
	// so dense columns are both smaller and faster than index/value pairs,
	// and they let btran cost one multiply per nonzero of c.
	nEta   int
	etaPos []int32
	etaPiv []float64
	eta    []float64
	cnz    []int32 // btran: positions where c is nonzero
	cmark  []bool

	// Factorization scratch.
	x              []float64 // dense accumulator by row, all zero between uses
	mark           []bool    // rows on the nz list
	nz             []int32   // nonzero pattern of x
	rowCnt, colCnt []int32   // entries in still-active columns / rows
	rPtr, rIdx     []int32   // row-wise pattern of B: basis positions per row
	queue          []int32   // singleton work list
	done           []bool    // basis positions already ordered
}

func newLUFactor(m int) *luFactor {
	return &luFactor{
		m:    m,
		prow: make([]int32, m), pcol: make([]int32, m), rowStep: make([]int32, m),
		lPtr: make([]int32, m+1), lSteps: make([]int32, 0, m),
		uPtr: make([]int32, m+1), uDiag: make([]float64, m),
		etaPos: make([]int32, refactorEvery), etaPiv: make([]float64, refactorEvery),
		eta: make([]float64, refactorEvery*m), cnz: make([]int32, 0, m), cmark: make([]bool, m),
		x: make([]float64, m), mark: make([]bool, m), nz: make([]int32, 0, m),
		rowCnt: make([]int32, m), colCnt: make([]int32, m),
		rPtr: make([]int32, m+1), queue: make([]int32, 0, m), done: make([]bool, m),
	}
}

// factor computes the LU factors of the basis whose position-k column is
// col(k), discarding the eta file. Pivot order: column singletons first
// (slacks, artificials, and whatever they expose — no elimination, empty L
// column), then row singletons (choose-one rows down to one basic path — no
// fill), then the remaining bump by ascending column count with threshold
// partial pivoting that prefers the sparsest row. Every choice is a
// function of the basis alone, so equal bases give bit-identical factors.
func (f *luFactor) factor(col func(k int) ([]int32, []float64)) error {
	m := f.m
	f.nEta = 0
	f.lIdx, f.lVal, f.lSteps = f.lIdx[:0], f.lVal[:0], f.lSteps[:0]
	f.uIdx, f.uVal = f.uIdx[:0], f.uVal[:0]

	// Row-wise pattern of B, for the singleton passes.
	rowCnt, colCnt := f.rowCnt, f.colCnt
	for i := range rowCnt {
		rowCnt[i] = 0
		f.rowStep[i] = -1
		f.done[i] = false
	}
	for k := 0; k < m; k++ {
		rows, _ := col(k)
		colCnt[k] = int32(len(rows))
		for _, r := range rows {
			rowCnt[r]++
		}
	}
	f.rPtr[0] = 0
	for i := 0; i < m; i++ {
		f.rPtr[i+1] = f.rPtr[i] + rowCnt[i]
	}
	if nnz := int(f.rPtr[m]); cap(f.rIdx) < nnz {
		f.rIdx = make([]int32, nnz)
	}
	rIdx := f.rIdx[:f.rPtr[m]]
	for k := m - 1; k >= 0; k-- { // descending fill leaves each row ascending
		rows, _ := col(k)
		for _, r := range rows {
			rowCnt[r]--
			rIdx[f.rPtr[r]+rowCnt[r]] = int32(k)
		}
	}
	for i := 0; i < m; i++ {
		rowCnt[i] = f.rPtr[i+1] - f.rPtr[i]
	}

	// Column singletons. Pivoting one retires its row, which can expose
	// more; rows still active never hold an entry of a retired column, so
	// row counts are untouched.
	t := 0
	q := f.queue[:0]
	for k := 0; k < m; k++ {
		if colCnt[k] == 1 {
			q = append(q, int32(k))
		}
	}
	for head := 0; head < len(q); head++ {
		k := q[head]
		if colCnt[k] == 0 {
			return ErrSingularBasis // every row it touches is already taken
		}
		rows, _ := col(int(k))
		var i int32
		for _, r := range rows {
			if f.rowStep[r] < 0 {
				i = r
				break
			}
		}
		f.pcol[t], f.prow[t], f.rowStep[i], f.done[k] = k, i, int32(t), true
		t++
		for _, k2 := range rIdx[f.rPtr[i]:f.rPtr[i+1]] {
			if !f.done[k2] {
				if colCnt[k2]--; colCnt[k2] == 1 {
					q = append(q, k2)
				}
			}
		}
	}
	// Row singletons. Pivoting one retires its column, which can expose
	// more; the retired row had no other active column, so column counts
	// are untouched and no new column singleton appears.
	q = q[:0]
	for i := 0; i < m; i++ {
		if f.rowStep[i] < 0 && rowCnt[i] == 1 {
			q = append(q, int32(i))
		}
	}
	for head := 0; head < len(q); head++ {
		i := q[head]
		if rowCnt[i] == 0 {
			return ErrSingularBasis // its only column went to another row
		}
		var k int32
		for _, k2 := range rIdx[f.rPtr[i]:f.rPtr[i+1]] {
			if !f.done[k2] {
				k = k2
				break
			}
		}
		f.pcol[t], f.prow[t], f.rowStep[i], f.done[k] = k, i, int32(t), true
		t++
		rows, _ := col(int(k))
		for _, r := range rows {
			if f.rowStep[r] < 0 {
				if rowCnt[r]--; rowCnt[r] == 1 {
					q = append(q, r)
				}
			}
		}
	}
	// Bump columns by ascending active count, position breaking ties
	// (insertion sort: allocation-free and stable).
	forced := t
	for k := 0; k < m; k++ {
		if f.done[k] {
			continue
		}
		j := t
		for j > forced && colCnt[f.pcol[j-1]] > colCnt[k] {
			f.pcol[j] = f.pcol[j-1]
			j--
		}
		f.pcol[j] = int32(k)
		t++
	}

	// Left-looking numeric pass over every step in order.
	x, mark := f.x, f.mark
	for t = 0; t < m; t++ {
		rows, vals := col(int(f.pcol[t]))
		nz := f.nz[:0]
		for p, r := range rows {
			x[r], mark[r] = vals[p], true
			nz = append(nz, r)
		}
		// x <- L^-1 x. Singleton steps never find a multiplicand here.
		for _, s := range f.lSteps {
			xv := x[f.prow[s]]
			if xv == 0 {
				continue
			}
			for p := f.lPtr[s]; p < f.lPtr[s+1]; p++ {
				i := f.lIdx[p]
				if !mark[i] {
					mark[i] = true
					nz = append(nz, i)
				}
				x[i] -= f.lVal[p] * xv
			}
		}
		// Entries in rows pivoted earlier are this step's U column.
		for _, i := range nz {
			if s := f.rowStep[i]; s >= 0 && int(s) < t && x[i] != 0 {
				f.uIdx = append(f.uIdx, i)
				f.uVal = append(f.uVal, x[i])
			}
		}
		f.uPtr[t+1] = int32(len(f.uIdx))
		piv := f.prow[t]
		if t >= forced {
			piv = f.bumpPivot(nz)
		}
		if piv < 0 || math.Abs(x[piv]) <= epsPivot {
			for _, i := range nz {
				x[i], mark[i] = 0, false
			}
			return ErrSingularBasis
		}
		d := x[piv]
		f.prow[t], f.rowStep[piv], f.uDiag[t] = piv, int32(t), d
		for _, i := range nz {
			v := x[i]
			x[i], mark[i] = 0, false
			if v == 0 || i == piv {
				continue
			}
			if s := f.rowStep[i]; s < 0 || int(s) > t {
				f.lIdx = append(f.lIdx, i)
				f.lVal = append(f.lVal, v/d)
			}
		}
		f.lPtr[t+1] = int32(len(f.lIdx))
		if f.lPtr[t+1] > f.lPtr[t] {
			f.lSteps = append(f.lSteps, int32(t))
		}
	}
	return nil
}

// bumpPivot picks the pivot row of the bump column held in x over the
// pattern nz: among unpivoted rows within luThreshold of the largest
// magnitude, the one with the fewest entries in bump columns, then the
// larger magnitude, then the smaller row index. Returns -1 for an empty
// column.
func (f *luFactor) bumpPivot(nz []int32) int32 {
	amax := 0.0
	for _, i := range nz {
		if f.rowStep[i] < 0 {
			amax = max(amax, math.Abs(f.x[i]))
		}
	}
	piv, bestCnt, bestMag := int32(-1), int32(math.MaxInt32), 0.0
	for _, i := range nz {
		a := math.Abs(f.x[i])
		if f.rowStep[i] >= 0 || a == 0 || a < luThreshold*amax {
			continue
		}
		if c := f.rowCnt[i]; c < bestCnt || c == bestCnt && (a > bestMag || a == bestMag && i < piv) {
			piv, bestCnt, bestMag = i, c, a
		}
	}
	return piv
}

// ftran solves B w = a. a arrives scattered in x (by row) and x is all
// zero on return; w is indexed by basis position.
func (f *luFactor) ftran(x, w []float64) {
	for _, s := range f.lSteps {
		xv := x[f.prow[s]]
		if xv == 0 {
			continue
		}
		for p := f.lPtr[s]; p < f.lPtr[s+1]; p++ {
			x[f.lIdx[p]] -= f.lVal[p] * xv
		}
	}
	for t := f.m - 1; t >= 0; t-- {
		r := f.prow[t]
		wt := x[r]
		x[r] = 0
		if wt != 0 {
			wt /= f.uDiag[t]
			for p := f.uPtr[t]; p < f.uPtr[t+1]; p++ {
				x[f.uIdx[p]] -= f.uVal[p] * wt
			}
		}
		w[f.pcol[t]] = wt
	}
	for e := 0; e < f.nEta; e++ {
		r := f.etaPos[e]
		wr := w[r]
		if wr == 0 {
			continue
		}
		wr /= f.etaPiv[e]
		col := f.eta[e*f.m : (e+1)*f.m]
		w := w[:len(col)]
		for i, v := range col {
			w[i] -= v * wr
		}
		w[r] = wr
	}
}

// ftranCol is ftran for a sparse column a = (rows, vals).
func (f *luFactor) ftranCol(rows []int32, vals []float64, w []float64) {
	for p, r := range rows {
		f.x[r] = vals[p]
	}
	f.ftran(f.x, w)
}

// btran solves y^T B = c^T. c is indexed by basis position and is
// overwritten; y is indexed by row.
func (f *luFactor) btran(c, y []float64) {
	// Eta file, last column first. Only c[etaPos[e]] changes per column, so
	// c fills in slowly from wherever it started (one entry for a row of
	// the inverse, the basic artificials in phase 1, U alone in phase 2):
	// track its nonzero positions and touch the dense column only there.
	nz := f.cnz[:0]
	if f.nEta > 0 {
		for i, v := range c {
			if v != 0 {
				nz = append(nz, int32(i))
				f.cmark[i] = true
			}
		}
	}
	for e := f.nEta - 1; e >= 0; e-- {
		col := f.eta[e*f.m : (e+1)*f.m]
		sum := 0.0
		if 2*len(nz) < f.m {
			for _, i := range nz {
				sum += col[i] * c[i]
			}
		} else {
			c := c[:len(col)]
			for i, v := range col {
				sum += v * c[i]
			}
		}
		r := f.etaPos[e]
		c[r] = (c[r] - sum) / f.etaPiv[e]
		if c[r] != 0 && !f.cmark[r] {
			f.cmark[r] = true
			nz = append(nz, r)
		}
	}
	for _, i := range nz {
		f.cmark[i] = false
	}
	for t := 0; t < f.m; t++ {
		sum := c[f.pcol[t]]
		for p := f.uPtr[t]; p < f.uPtr[t+1]; p++ {
			sum -= f.uVal[p] * y[f.uIdx[p]]
		}
		if sum != 0 {
			sum /= f.uDiag[t]
		}
		y[f.prow[t]] = sum
	}
	for k := len(f.lSteps) - 1; k >= 0; k-- {
		s := f.lSteps[k]
		sum := 0.0
		for p := f.lPtr[s]; p < f.lPtr[s+1]; p++ {
			sum += f.lVal[p] * y[f.lIdx[p]]
		}
		y[f.prow[s]] -= sum
	}
}

// update appends the eta column of a pivot at basis position r, where
// w = B^-1 a_q is the entering column. full reports that the file has
// reached refactorEvery columns and the caller must refactorize.
func (f *luFactor) update(r int, w []float64) (full bool) {
	e := f.nEta
	f.etaPos[e], f.etaPiv[e] = int32(r), w[r]
	copy(f.eta[e*f.m:(e+1)*f.m], w)
	f.eta[e*f.m+r] = 0
	f.nEta++
	return f.nEta == refactorEvery
}
