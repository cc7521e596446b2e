package obs

import "math"

// Quantile reads the q-quantile (0 < q <= 1) from samples sorted
// ascending, by nearest rank on the raw values: index ceil(q·n)−1, no
// buckets, no interpolation. It is the rank rule internal/bench reads
// its percentiles by, so every exact quantile in the repo agrees on
// which sample a percentile names; Histogram.Quantile is the bucketed
// estimate for streams too long to keep. Zero for no samples.
func Quantile[T any](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
