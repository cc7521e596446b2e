package swarmload

import (
	"sort"
	"sync"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/obs"
)

// sample.go is the deterministic latency sampler that replaced the
// per-peer latency vectors when the generator learned to ramp 100k+
// virtual peers: instead of materializing one time.Duration per peer
// and sorting the whole population, each stripe keeps the k
// lowest-priority observations, where an observation's priority is a
// hash of (seed, peer index). Because the priority depends only on the
// seed and the index — never on arrival order, goroutine scheduling, or
// the observed value — the set of sampled peers is a deterministic
// simple random sample: the same seed and population always keep the
// same indices, no matter how the ramp interleaves.
//
// Memory is O(sample size) regardless of population, and recording is
// a per-stripe lock plus at most one bounded-heap operation, so 64
// ramp workers don't serialize on one mutex.

const (
	// sampleStripes fans the recording lock out; indices stripe by
	// i % sampleStripes, so the stripe choice is deterministic too.
	sampleStripes = 16
	// defaultSampleSize bounds the kept population. 4096 points put a
	// p99 estimate within a fraction of a percentile of the true value
	// at any population size this generator can reach.
	defaultSampleSize = 4096
)

// sampleEntry is one kept observation: the hash priority that admitted
// it and the latency it carries.
type sampleEntry struct {
	pri uint64
	v   time.Duration
}

// sampleStripe is one lock domain: a bounded max-heap on priority, so
// the largest kept priority is at the root and is the first evicted.
type sampleStripe struct {
	mu   sync.Mutex
	n    int // observations routed here, kept or not
	max  int
	heap []sampleEntry
}

// sampler is the deterministic reservoir. Safe for concurrent record
// calls; read methods (kept, quantileMs, count) must not race with
// writers — the generator reads only between phases.
type sampler struct {
	seed    int64
	stripes [sampleStripes]sampleStripe
}

// newSampler sizes a sampler for about `size` kept observations
// (defaultSampleSize when size <= 0), split evenly across stripes.
func newSampler(seed int64, size int) *sampler {
	if size <= 0 {
		size = defaultSampleSize
	}
	per := (size + sampleStripes - 1) / sampleStripes
	s := &sampler{seed: seed}
	for i := range s.stripes {
		s.stripes[i].max = per
		s.stripes[i].heap = make([]sampleEntry, 0, per)
	}
	return s
}

// samplePriority is FNV-1a over the seed and index bytes. Uniform
// enough that "keep the k smallest priorities" is a simple random
// sample of size k.
func samplePriority(seed int64, i int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(seed))
	mix(uint64(i))
	return h
}

// record offers observation i with latency v. Whether it is kept
// depends only on (seed, i) and the other indices offered to the same
// stripe — not on call order.
func (s *sampler) record(i int, v time.Duration) {
	if i < 0 {
		i = -i
	}
	st := &s.stripes[i%sampleStripes]
	pri := samplePriority(s.seed, i)
	st.mu.Lock()
	st.n++
	switch {
	case len(st.heap) < st.max:
		st.push(sampleEntry{pri: pri, v: v})
	case pri < st.heap[0].pri:
		st.heap[0] = sampleEntry{pri: pri, v: v}
		st.siftDown(0)
	}
	st.mu.Unlock()
}

// count is the total number of observations offered.
func (s *sampler) count() int {
	total := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		total += st.n
		st.mu.Unlock()
	}
	return total
}

// kept returns the sampled latencies (unordered).
func (s *sampler) kept() []time.Duration {
	out := make([]time.Duration, 0, sampleStripes*s.stripes[0].max)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for _, e := range st.heap {
			out = append(out, e.v)
		}
		st.mu.Unlock()
	}
	return out
}

// quantileMs estimates the q-th quantile of the offered population in
// milliseconds from the kept sample.
func (s *sampler) quantileMs(q float64) float64 {
	lats := s.kept()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return float64(obs.Quantile(lats, q)) / float64(time.Millisecond)
}

func (st *sampleStripe) push(e sampleEntry) {
	st.heap = append(st.heap, e)
	i := len(st.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if st.heap[p].pri >= st.heap[i].pri {
			break
		}
		st.heap[i], st.heap[p] = st.heap[p], st.heap[i]
		i = p
	}
}

func (st *sampleStripe) siftDown(i int) {
	n := len(st.heap)
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < n && st.heap[l].pri > st.heap[big].pri {
			big = l
		}
		if r < n && st.heap[r].pri > st.heap[big].pri {
			big = r
		}
		if big == i {
			return
		}
		st.heap[i], st.heap[big] = st.heap[big], st.heap[i]
		i = big
	}
}
