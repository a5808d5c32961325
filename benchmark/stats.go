package main

import (
	"sort"
)

// counters holds exact counts read from the layers' public accessors (and
// values derived from them alone). Every unit of a workload must produce
// the same counters; that, not a timing, is how the benchmark knows the
// simulated results did not move.
type counters map[string]float64

func (c counters) add(name string, n uint64) { c[name] += float64(n) }

// names returns the counter names in sorted order.
func (c counters) names() []string {
	out := make([]string, 0, len(c))
	for k := range c {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// firstDiff returns the first counter (in name order) on which a and b
// disagree, or "" when they are identical.
func firstDiff(a, b counters) string {
	for _, k := range a.names() {
		if bv, ok := b[k]; !ok || bv != a[k] {
			return k
		}
	}
	for _, k := range b.names() {
		if _, ok := a[k]; !ok {
			return k
		}
	}
	return ""
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (exclusive), which
// is what the acceptance check of this benchmark uses. Fewer than two
// samples have no spread: all three are the sample itself.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
