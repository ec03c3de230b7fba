package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (q in [0,1]) of sorted by linear
// interpolation between the two closest ranks (the "linear" method of
// numpy and R type 7). It returns 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// counterDelta is the growth of a monotone counter between two reads.
// A daemon that restarted between the reads starts its counters from
// zero, so a read that went down counts from zero: the delta is the
// new life's value, never negative.
func counterDelta(before, after int64) int64 {
	if after < before {
		return after
	}
	return after - before
}

// perOp divides a total by an operation count, 0 when there were none.
func perOp(total float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}
