package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}, {0.75, 3.25},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample should give 0")
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{20000, "p99.9"}, {4000, "p99"}, {1000, "p99"}, {999, "p90"}, {120, "p90"}, {99, "p50"}} {
		if _, got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %s, want %s", c.n, got, c.want)
		}
	}
}

func TestCoveredUnionClipped(t *testing.T) {
	spans := []interval{{10, 20}, {15, 30}, {40, 50}, {0, 5}, {45, 60}}
	// Union within [3, 55): [3,5) + [10,30) + [40,55) = 2 + 20 + 15.
	if got := covered(spans, interval{3, 55}); got != 37 {
		t.Errorf("covered = %d, want 37", got)
	}
	if got := covered(nil, interval{0, 100}); got != 0 {
		t.Errorf("covered(nil) = %d, want 0", got)
	}
}

func TestZipfCountsExact(t *testing.T) {
	counts := zipfCounts(8, 1.2, 100)
	sum := 0
	for i, c := range counts {
		sum += c
		if i > 0 && c > counts[i-1] {
			t.Errorf("counts not decreasing: %v", counts)
		}
	}
	if sum != 100 || counts[0] != 43 {
		t.Errorf("zipfCounts = %v (sum %d), want 100 split with 43 on rank 0", counts, sum)
	}
	if got := zipfCounts(1, 1.2, 100); len(got) != 1 || got[0] != 100 {
		t.Errorf("single tenant = %v", got)
	}
}
