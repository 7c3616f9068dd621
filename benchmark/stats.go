package main

import (
	"math"
	"sort"
)

// median returns the middle value of vals (the mean of the two middle
// values for an even count), or 0 for none. vals is not modified.
func median(vals []float64) float64 {
	return quantileSorted(sortedCopy(vals), 0.5)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates the q-quantile of an ascending slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (exclusive method), which is what
// the acceptance check of BENCHMARK.json computes spreads from.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n < 2 {
		v := median(vals)
		return v, v
	}
	at := func(k int) float64 {
		j, delta := k*(n+1)/4, float64(k*(n+1)%4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// tailPercentile applies the reporting rule for latency tails: among the
// candidate percentiles it picks the highest one that still has at least
// tailBeyond samples above it, and returns that percentile with its
// value. With too few samples for any candidate it returns (0, 0) and
// the caller reports no tail.
func tailPercentile(samples []float64, candidates ...float64) (pct, value float64) {
	s := sortedCopy(samples)
	n := len(s)
	sort.Float64s(candidates)
	for i := len(candidates) - 1; i >= 0; i-- {
		p := candidates[i]
		rank := nearestRank(p, n)
		if rank < 1 || n-rank < tailBeyond {
			continue
		}
		return p, s[rank-1]
	}
	return 0, 0
}

// percentile is the nearest-rank percentile of samples, 0 for none.
func percentile(samples []float64, p float64) float64 {
	s := sortedCopy(samples)
	if len(s) == 0 {
		return 0
	}
	return s[max(nearestRank(p, len(s)), 1)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n sorted
// samples; the epsilon keeps p*n/100 from rounding up past an integer it
// equals.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}
