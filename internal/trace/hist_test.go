package trace

import (
	"testing"
	"time"
)

// TestHistogramEmptyQuantiles: a zero-count histogram reports zero for
// every summary instead of walking garbage buckets.
func TestHistogramEmptyQuantiles(t *testing.T) {
	h := &Histogram{}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Mean() != 0 || h.min != 0 || h.Max() != 0 {
		t.Fatalf("empty summary = %s", h)
	}
}

// TestHistogramSingleSample: with one observation every quantile is that
// observation (the bucket upper bound must clamp to the true max).
func TestHistogramSingleSample(t *testing.T) {
	h := &Histogram{}
	h.Observe(1000 * time.Nanosecond)
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1000*time.Nanosecond {
			t.Fatalf("Quantile(%v) = %v, want 1µs", q, got)
		}
	}
}

// TestHistogramSingleBucket: identical samples all land in one bucket;
// quantiles must report the sample value, not the bucket's raw upper
// bound.
func TestHistogramSingleBucket(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(3 * time.Microsecond)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.999, 1} {
		if got := h.Quantile(q); got != 3*time.Microsecond {
			t.Fatalf("Quantile(%v) = %v, want 3µs", q, got)
		}
	}
}

// TestHistogramQuantileRankPrecision pins the float-rounding regression:
// 0.55*100 evaluates to 55.00000000000001, which must still select rank
// 55 (the last 2ns sample), not rank 56.
func TestHistogramQuantileRankPrecision(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 55; i++ {
		h.Observe(2 * time.Nanosecond)
	}
	for i := 0; i < 45; i++ {
		h.Observe(5 * time.Nanosecond)
	}
	if got := h.Quantile(0.55); got != 2*time.Nanosecond {
		t.Fatalf("Quantile(0.55) = %v, want 2ns", got)
	}
	// Just past the boundary the next bucket is correct.
	if got := h.Quantile(0.551); got != 5*time.Nanosecond {
		t.Fatalf("Quantile(0.551) = %v, want 5ns", got)
	}
}

// TestHistogramQuantileBounds: out-of-range q values are clamped to the
// observed extrema.
func TestHistogramQuantileBounds(t *testing.T) {
	h := &Histogram{}
	h.Observe(2 * time.Nanosecond)
	h.Observe(5 * time.Nanosecond)
	if got := h.Quantile(0); got != 2*time.Nanosecond {
		t.Fatalf("Quantile(0) = %v, want min", got)
	}
	if got := h.Quantile(-1); got != 2*time.Nanosecond {
		t.Fatalf("Quantile(-1) = %v, want min", got)
	}
	if got := h.Quantile(1); got != 5*time.Nanosecond {
		t.Fatalf("Quantile(1) = %v, want max", got)
	}
	if got := h.Quantile(2); got != 5*time.Nanosecond {
		t.Fatalf("Quantile(2) = %v, want max", got)
	}
}
