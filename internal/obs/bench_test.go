package obs_test

import (
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/obs"
)

// BenchmarkObsOverhead measures what instrumentation adds to a run of
// cheap jobs: bare; one Histogram.Observe per job; and the histogram
// plus one Begin/End span per job on a fresh tracer each iteration (a
// tracer buffers every span, so reusing one would grow its buffers
// without bound and measure append cost at sizes no real run reaches).
func BenchmarkObsOverhead(b *testing.B) {
	const jobs = 512
	job := func(i int) int { return i * 2 }

	// iteration returns the per-job instrumentation for one pass over
	// the jobs.
	run := func(b *testing.B, iteration func() func(i int)) {
		b.Helper()
		sum := 0
		for n := 0; n < b.N; n++ {
			observe := iteration()
			for i := range jobs {
				observe(i)
				sum += job(i)
			}
		}
		if sum != b.N*jobs*(jobs-1) {
			b.Fatalf("sum = %d, want %d", sum, b.N*jobs*(jobs-1))
		}
	}

	b.Run("bare", func(b *testing.B) {
		run(b, func() func(int) { return func(int) {} })
	})
	b.Run("histogram", func(b *testing.B) {
		h := obs.NewHistogram()
		run(b, func() func(int) { return func(i int) { h.Observe(int64(i)) } })
	})
	b.Run("histogram+tracer", func(b *testing.B) {
		h := obs.NewHistogram()
		run(b, func() func(int) {
			tr := obs.NewTracer(nil)
			return func(i int) {
				sp := tr.Begin("bench_job", obs.A("i", i))
				h.Observe(int64(i))
				sp.End()
			}
		})
	})
}

// BenchmarkCounterInc isolates the cheapest obs primitive.
func BenchmarkCounterInc(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_counter_total", "bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkHistogramObserve isolates the latency-histogram hot path.
func BenchmarkHistogramObserve(b *testing.B) {
	h := obs.NewHistogram()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v = (v*2 + 1) & 0xfffff
		}
	})
}
