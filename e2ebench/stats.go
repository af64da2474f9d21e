package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is the linearly interpolated q-quantile of xs (R type 7, the
// same rule as Python's statistics.quantiles(method="inclusive")); 0 for
// an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-lo)*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it, with its label; (0.5, "p50") when even p90 does not.
func tailQuantile(n int) (float64, string) {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-q) >= 10 {
			return q, fmt.Sprintf("p%g", q*100)
		}
	}
	return 0.5, "p50"
}

// interval is a half-open [start, end) span of nanoseconds.
type interval struct{ start, end int64 }

// covered is the length of the union of spans, clipped to within.
func covered(spans []interval, within interval) int64 {
	clipped := make([]interval, 0, len(spans))
	for _, s := range spans {
		if s.start < within.start {
			s.start = within.start
		}
		if s.end > within.end {
			s.end = within.end
		}
		if s.end > s.start {
			clipped = append(clipped, s)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	cur := interval{start: -1, end: -1}
	for _, s := range clipped {
		if s.start > cur.end {
			total += cur.end - cur.start
			cur = s
			continue
		}
		if s.end > cur.end {
			cur.end = s.end
		}
	}
	return total + cur.end - cur.start
}
