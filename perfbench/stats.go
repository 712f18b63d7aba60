package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q of the samples at or below it, so the
// result is always a measured value. It sorts xs in place and returns
// NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median is the middle of xs, averaging the two middle samples of an even
// count. It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0 (a counter the run never moved).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the length of parent minus the part of it covered by the
// union of children. Children may overlap one another and may stick out
// of the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}
