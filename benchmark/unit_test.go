package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1) // 1..n: the value at rank r is r
	}
	return v
}

// TestTailPercentileRule: report the highest percentile that still has
// at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{60000, 99.9, 59940}, // 60 beyond p99.9
		{2000, 99, 1980},     // p99.9 would leave 2 beyond, p99 leaves 20
		{1000, 99, 990},      // exactly 10 beyond p99
		{999, 95, 950},       // 9 beyond p99: not enough; p95 leaves 49
		{370, 95, 352},       // daemon-cold's size: 18 beyond p95
		{200, 95, 190},       // exactly 10 beyond
		{199, 90, 180},       // 9 beyond p95
		{18, 0, 0},           // synth-milp's 18 ops support no percentile
	} {
		pct, val := tailPercentile(seq(tc.n), 90, 95, 99, 99.9)
		if pct != tc.wantPct || val != tc.wantVal {
			t.Errorf("n=%d: p%g = %g, want p%g = %g", tc.n, pct, val, tc.wantPct, tc.wantVal)
		}
	}
	// Order of the samples and of the candidates does not matter.
	if pct, _ := tailPercentile([]float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 99, 50); pct != 50 {
		t.Errorf("unsorted input: picked p%g, want p50", pct)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %g", m)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g, %g, want 1.5, 12", q1, q3)
	}
}

// TestSpanSelfTime: a span's self time is its duration minus the part of
// its interval its children cover — overlapping children once, children
// clipped to the parent, grandchildren charged to their own parent.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},       // 20 of root
		{Name: "b", Start: 20, End: 50, Parent: 0},       // overlaps a: adds 30..50 = 20
		{Name: "c", Start: 90, End: 120, Parent: 0},      // clipped to 90..100 = 10
		{Name: "a1", Start: 12, End: 18, Parent: 1},      // grandchild: charged to a, not root
		{Name: "lone", Start: 200, End: 230, Parent: -1}, // no children
		{Name: "orphan", Start: 5, End: 6, Parent: 99},   // unknown parent: ignored as a child
	}
	want := []time.Duration{50, 14, 30, 30, 6, 30, 1}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	total, self := sumByName(spans, 0)
	if total["root"] != ms(100) || self["root"] != ms(50) {
		t.Errorf("sumByName root: total %g self %g", total["root"], self["root"])
	}
}

// TestSpanSumsAveragePasses: set-up and replay spans count as recorded,
// traced-pass spans as the mean per pass.
func TestSpanSumsAveragePasses(t *testing.T) {
	msSpan := func(name string, start, dur int64) span {
		return span{Name: name, Start: start * 1e6, End: (start + dur) * 1e6, Parent: -1}
	}
	spans := []span{
		msSpan("topology.build", 0, 4), // set-up
		msSpan("sim.run", 10, 20),      // traced pass 1
		msSpan("sim.run", 40, 30),      // traced pass 2
		msSpan("sim.new", 80, 6),       // replay
		msSpan("not.a.metric", 90, 5),
	}
	lm := layers{}
	addSpanSums(lm, spans, 1, 3, 2)
	for name, want := range map[string]float64{"topology.build_ms": 4, "sim.run_ms": 25, "sim.new_ms": 6} {
		if math.Abs(lm[name]-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, lm[name], want)
		}
	}
	if _, ok := lm["not.a.metric_ms"]; ok {
		t.Error("a span outside the per-layer table became a metric")
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", noSpan, 0)
	if id != noSpan || tr.end(id) != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded something")
	}
	tr.reset()
}
