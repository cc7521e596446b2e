package bench

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile's rank
// before the harness will report it: with fewer, the figure is a handful
// of outliers, not a property of the run.
const minBeyond = 10

// Quantile reads the q-quantile (0 < q < 1) from samples sorted
// ascending, by nearest rank on the raw values — no buckets, no
// interpolation — and returns it with the sample count. It refuses with
// an error when fewer than minBeyond samples lie beyond the rank it
// would return (p50 needs 20 samples, p95 200, p99 1000, p99.9 10000).
func Quantile(sorted []float64, q float64) (v float64, n int, err error) {
	n = len(sorted)
	if !(q > 0 && q < 1) {
		return 0, n, fmt.Errorf("bench: quantile %v outside (0,1)", q)
	}
	rank := nearestRank(n, q)
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, n, fmt.Errorf("bench: p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return sorted[rank], n, nil
}

// nearestRank is the index of the q-quantile among n sorted samples.
func nearestRank(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return rank
}

// quantileOr0 sorts samples in place and reads the q-quantile, or 0 when
// the sample cannot support it — the form per-layer tail metrics take on
// workloads too short for them (README, "unsupported percentiles").
func quantileOr0(samples []float64, q float64) float64 {
	sort.Float64s(samples)
	v, _, err := Quantile(samples, q)
	if err != nil {
		return 0
	}
	return v
}

// median returns the middle value of xs (mean of the two middle values
// for an even count) without any sample-count floor: it aggregates a few
// repetitions, each already a supported statistic.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
