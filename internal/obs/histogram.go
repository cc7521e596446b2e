package obs

import (
	"math/bits"
	"sync/atomic"
)

// histSubBits gives each power-of-two octave 2^histSubBits sub-buckets,
// bounding the quantile error at ~1/2^histSubBits without any locking
// on the record path. Every subsystem shares this one implementation.
const histSubBits = 3

// histBuckets covers values from 1 to beyond 2^63/2 — for nanosecond
// durations, from 1ns to beyond an hour.
const histBuckets = 64 << histSubBits

// Histogram is a lock-free log-scale histogram of non-negative int64
// values. All methods are safe for concurrent use; a nil *Histogram
// no-ops. The unit is the caller's — by convention the metric name
// carries it (_ns, _bytes).
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// NewHistogram returns an empty histogram, for use outside a Registry.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the exact largest observed value (the buckets only bound
// it to ~12%, so it is tracked separately).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile returns the q-th quantile (0 < q <= 1) as the representative
// value of the bucket containing it; zero when nothing was observed.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= target {
			return bucketValue(i)
		}
	}
	return bucketValue(histBuckets - 1)
}

// bucketIndex maps a value to its bucket: exact below 2^histSubBits and
// geometric above, with 2^histSubBits sub-buckets per octave.
func bucketIndex(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	e := bits.Len64(v) - 1
	sub := (v >> uint(e-histSubBits)) & (1<<histSubBits - 1)
	idx := (e-histSubBits+1)<<histSubBits | int(sub)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketValue returns a bucket's representative (midpoint) value.
func bucketValue(idx int) int64 {
	if idx < 1<<histSubBits {
		return int64(idx)
	}
	e := idx>>histSubBits + histSubBits - 1
	sub := uint64(idx & (1<<histSubBits - 1))
	width := uint64(1) << uint(e-histSubBits)
	base := uint64(1)<<uint(e) | sub*width
	return int64(base + width/2)
}
