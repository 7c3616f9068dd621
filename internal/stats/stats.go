// Package stats provides the small descriptive-statistics toolkit the
// simulator and experiment harness use: streaming summaries (mean,
// variance, extremes), fixed-width histograms with percentile queries, and
// batch-mean confidence intervals for steady-state simulation outputs.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates a stream of observations in O(1) space using
// Welford's algorithm.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Merge folds the observations of o into s using Chan et al.'s parallel
// Welford combination, as if every observation of o had been Added to s.
// It is the aggregation primitive for statistics collected concurrently
// (per flow, per worker, per replica); o is left unchanged. A nil o is a
// no-op. s.Merge(s) is well defined and doubles the stream: n and m2
// double while mean and extremes are unchanged — exactly the result of
// re-Adding every observation.
func (s *Summary) Merge(o *Summary) {
	if o == nil || o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	d := o.mean - s.mean
	s.m2 += o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	s.mean += d * float64(o.n) / float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = n
}

// N returns the observation count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 for fewer than two
// observations).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min and Max return the extremes (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation.
func (s *Summary) Max() float64 { return s.max }

// String formats the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f",
		s.n, s.Mean(), s.Std(), s.min, s.max)
}

// Histogram is a fixed-width bucket histogram over [Lo, Hi); observations
// outside the range land in saturating end buckets.
type Histogram struct {
	lo, hi  float64
	buckets []int64
	total   int64
}

// NewHistogram builds a histogram with n equal buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram [%g,%g)/%d", lo, hi, n))
	}
	return &Histogram{lo: lo, hi: hi, buckets: make([]int64, n)}
}

// Add records one observation. It panics on a zero-value Histogram
// (construct with NewHistogram) — without the explicit check the failure
// would surface as an inscrutable index-out-of-range on bucket -1.
func (h *Histogram) Add(x float64) {
	if len(h.buckets) == 0 {
		panic("stats: Add on zero-value Histogram (use NewHistogram)")
	}
	i := int(float64(len(h.buckets)) * (x - h.lo) / (h.hi - h.lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.total++
}

// Total returns the observation count.
func (h *Histogram) Total() int64 { return h.total }

// Bucket returns the count of bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// NumBuckets returns the bucket count.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// BucketBounds returns the [lo, hi) range of bucket i.
func (h *Histogram) BucketBounds(i int) (lo, hi float64) {
	w := (h.hi - h.lo) / float64(len(h.buckets))
	return h.lo + float64(i)*w, h.lo + float64(i+1)*w
}

// Percentile returns an upper bound on the p-th percentile (0 < p <= 100):
// the upper edge of the bucket where the cumulative count crosses p%.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(float64(h.total) * p / 100))
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			_, hi := h.BucketBounds(i)
			return hi
		}
	}
	return h.hi
}
