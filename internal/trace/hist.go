package trace

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Histogram is a fixed-size log-scale latency histogram: four linear
// sub-buckets per power of two, covering the full time.Duration range.
// Observations are exact below 8ns and within 25% above; quantiles
// report the upper bound of the selected bucket (clamped to the true
// maximum), which is what the artifact percentile columns need — a
// stable, deterministic summary with bounded relative error and no
// per-sample storage.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

const (
	histSubBits = 2 // log2 of sub-buckets per octave
	histSub     = 1 << histSubBits
	// 62 octaves above the exact range, histSub buckets each, plus the
	// 2*histSub exact small-value buckets.
	histBuckets = 62*histSub + 2*histSub
)

// bucketOf maps a duration to its bucket index. Negative durations
// count as zero.
func bucketOf(d time.Duration) int {
	n := uint64(d)
	if d <= 0 {
		return 0
	}
	o := bits.Len64(n) - 1 // highest set bit, 0..63
	if o <= histSubBits {
		return int(n) // 0..7 exact
	}
	sub := (n >> (uint(o) - histSubBits)) & (histSub - 1)
	return (o-histSubBits)*histSub + histSub + int(sub)
}

// bucketUpper returns the largest duration mapping to bucket i.
func bucketUpper(i int) time.Duration {
	if i < 2*histSub {
		return time.Duration(i)
	}
	o := i/histSub + histSubBits - 1
	sub := uint64(i % histSub)
	return time.Duration((histSub+sub+1)<<(uint(o)-histSubBits) - 1)
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	h.sum += d
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.n++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the exact sample mean (zero when empty).
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Max returns the largest sample (zero when empty).
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the q-quantile as the upper bound of the bucket
// holding the rank-ceil(q*n) sample, clamped to Max. Zero when empty;
// q <= 0 yields Min and q >= 1 yields Max.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// rank = ceil(q*n), with an epsilon so float rounding in the product
	// cannot push the rank across an integer boundary (0.55*100 is
	// 55.00000000000001 and must select rank 55, not 56).
	rank := uint64(math.Ceil(q*float64(h.n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			ub := bucketUpper(i)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// P50 returns the median.
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }

// P90 returns the 90th percentile.
func (h *Histogram) P90() time.Duration { return h.Quantile(0.90) }

// P99 returns the 99th percentile.
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// String renders the headline percentiles.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		h.n, h.Mean(), h.P50(), h.P90(), h.P99(), h.Max())
}
