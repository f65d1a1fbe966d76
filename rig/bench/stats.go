package bench

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between the two nearest ranks; sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the median of v (NaN when empty).
func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) does (the exclusive method), so
// a spread computed here matches the one the acceptance rule computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// position i*(n+1)/4 in 1-based ranks, clamped to the sample.
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// durationsUS converts nanosecond samples to a sorted microsecond slice.
func durationsUS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

// medianUS is the median of nanosecond samples in microseconds (0 when
// there are none: a layer the workload never enters reports zero).
func medianUS(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	return quantile(durationsUS(ns), 0.5)
}

// medianNS is the median of nanosecond samples (0 when there are none).
func medianNS(ns []int64) float64 { return medianUS(ns) * 1e3 }

// medianOf is the median of v, 0 when empty.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantileOr0 is quantile, 0 when there are no samples.
func quantileOr0(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantile(sorted, q)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// mean is the arithmetic mean of v, 0 when empty.
func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }
