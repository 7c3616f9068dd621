package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.N() != 0 {
		t.Error("empty summary not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %g, want 5", s.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Errorf("var = %g, want %g", s.Var(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("extremes = %g, %g", s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

// Welford must match the naive two-pass computation.
func TestSummaryMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var s Summary
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			s.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		v := 0.0
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		v /= float64(n - 1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Var()-v) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if h.Total() != 100 {
		t.Fatalf("total %d", h.Total())
	}
	for i := 0; i < 10; i++ {
		if h.Bucket(i) != 10 {
			t.Errorf("bucket %d = %d, want 10", i, h.Bucket(i))
		}
		lo, hi := h.BucketBounds(i)
		if lo != float64(i*10) || hi != float64(i*10+10) {
			t.Errorf("bounds(%d) = [%g,%g)", i, lo, hi)
		}
	}
	// Out-of-range values saturate.
	h.Add(-5)
	h.Add(1e9)
	if h.Bucket(0) != 11 || h.Bucket(9) != 11 {
		t.Error("saturation buckets wrong")
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) + 0.5)
	}
	if p := h.Percentile(50); math.Abs(p-50) > 1 {
		t.Errorf("p50 = %g", p)
	}
	if p := h.Percentile(99); math.Abs(p-99) > 1 {
		t.Errorf("p99 = %g", p)
	}
	if p := h.Percentile(100); p != 100 {
		t.Errorf("p100 = %g", p)
	}
	empty := NewHistogram(0, 1, 4)
	if empty.Percentile(50) != 0 {
		t.Error("empty percentile not 0")
	}
}

func TestHistogramValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram accepted")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole, left, right Summary
	for i := 0; i < 5000; i++ {
		x := rng.NormFloat64()*3 + 10
		whole.Add(x)
		if i%3 == 0 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	var merged Summary
	merged.Merge(&left)
	merged.Merge(&right)
	if merged.N() != whole.N() {
		t.Fatalf("merged n = %d, want %d", merged.N(), whole.N())
	}
	for name, pair := range map[string][2]float64{
		"mean": {merged.Mean(), whole.Mean()},
		"var":  {merged.Var(), whole.Var()},
		"min":  {merged.Min(), whole.Min()},
		"max":  {merged.Max(), whole.Max()},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-9 {
			t.Errorf("merged %s = %g, want %g", name, pair[0], pair[1])
		}
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	var a, b Summary
	a.Add(2)
	a.Add(4)
	before := a
	a.Merge(&b) // merging empty is a no-op
	if a != before {
		t.Error("merging an empty summary changed the target")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 2 || b.Mean() != 3 || b.Min() != 2 || b.Max() != 4 {
		t.Errorf("merge into empty: %v", b.String())
	}
}

func TestSummaryMergeNilAndSelf(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 3, 5, 7} {
		s.Add(x)
	}
	before := s
	s.Merge(nil)
	if s != before {
		t.Error("merging nil changed the target")
	}
	// Self-merge doubles the stream: n and m2 double, mean/extremes hold.
	s.Merge(&s)
	if s.N() != 2*before.N() {
		t.Errorf("self-merge n = %d, want %d", s.N(), 2*before.N())
	}
	if s.Mean() != before.Mean() || s.Min() != before.Min() || s.Max() != before.Max() {
		t.Errorf("self-merge moved mean/extremes: %v", s.String())
	}
	if math.Abs(s.m2-2*before.m2) > 1e-12 {
		t.Errorf("self-merge m2 = %g, want %g", s.m2, 2*before.m2)
	}
}

func TestHistogramZeroValueAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add on zero-value Histogram did not panic")
		}
	}()
	var h Histogram
	h.Add(1)
}
