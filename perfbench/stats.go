package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it. It
// sorts xs in place and returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// beyond reports how many samples of an n-sample set lie above its
// q-quantile; a percentile is only reported when at least ten do.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// goodQuartile returns the quartile of per-slice samples on the good side:
// the third quartile of a "higher" is better figure, the first of a "lower"
// one. Neighbours on a shared host only ever slow a slice down, and do so
// in bursts, so the good side of a run's slices tracks the program's own
// speed more closely than the median does.
func goodQuartile(xs []float64, better string) float64 {
	if better == "higher" {
		return quantile(xs, 0.75)
	}
	return quantile(xs, 0.25)
}

// geomean returns the geometric mean of positive values (NaN when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// share returns part/whole, or 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// zeroIfNaN reads an empty sample's NaN statistic as 0, which JSON can
// carry.
func zeroIfNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// ms and us convert nanoseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }
