package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("jobs_total", "jobs")
	b := r.Counter("jobs_total", "jobs")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	b.Add(2)
	if got := a.Value(); got != 3 {
		t.Fatalf("aggregated count = %d, want 3", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter held a value")
	}
	g := r.Gauge("b", "")
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge held a value")
	}
	r.GaugeFunc("c", "", func() float64 { return 1 })
	h := r.Histogram("d_ns", "")
	h.Observe(3)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram held observations")
	}
	v := r.CounterVec("e_total", "", "video")
	v.With("v1").Inc()
	if v.With("v1").Value() != 0 {
		t.Fatal("nil counter vec held a value")
	}
	gv := r.GaugeVec("f", "", "server")
	gv.With("s0").Set(3)
	gv.WithFunc("s1", func() float64 { return 9 })
	if gv.With("s0").Value() != 0 {
		t.Fatal("nil gauge vec held a value")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v len=%d", err, sb.Len())
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("peers", "")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("bytes_total", "", "video")
	v.With("b").Add(2)
	v.With("a").Add(1)
	v.With("b").Add(3)
	got := v.sorted()
	if len(got) != 2 || got[0].value != "a" || got[0].count != 1 || got[1].value != "b" || got[1].count != 5 {
		t.Fatalf("sorted = %+v", got)
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("ring_owned", "", "server")
	v.With("s1").Set(5)
	v.With("s0").Set(2)
	v.WithFunc("s2", func() float64 { return 7 })
	v.With("s1").Add(-1)
	got := v.sorted()
	if len(got) != 3 ||
		got[0].value != "s0" || got[0].v != 2 ||
		got[1].value != "s1" || got[1].v != 4 ||
		got[2].value != "s2" || got[2].v != 7 {
		t.Fatalf("sorted = %+v", got)
	}
	// First claim of a label value wins; a later With on a func child
	// returns a detached gauge rather than clobbering the callback.
	v.With("s2").Set(100)
	if got := v.sorted(); got[2].v != 7 {
		t.Fatalf("func child clobbered: %+v", got)
	}
	v.WithFunc("s0", func() float64 { return 100 })
	if got := v.sorted(); got[0].v != 2 {
		t.Fatalf("gauge child clobbered: %+v", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 500500 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < 400 || p50 > 640 {
		t.Fatalf("p50 = %d, want within a bucket of 500", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900 || p99 > 1100 {
		t.Fatalf("p99 = %d, want within a bucket of 990", p99)
	}
	if h.Quantile(1) < p99 {
		t.Fatal("p100 below p99")
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5) // clamps to 0
	for i := int64(0); i < 1<<histSubBits; i++ {
		h.Observe(i)
	}
	// Below 2^histSubBits buckets are exact.
	if got := h.Quantile(1); got != (1<<histSubBits)-1 {
		t.Fatalf("p100 = %d, want %d", got, (1<<histSubBits)-1)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if h.Max() != 999 {
		t.Fatalf("max = %d, want 999", h.Max())
	}
}

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 7, 8, 9, 100, 1 << 20, 1<<40 + 12345} {
		idx := bucketIndex(v)
		rep := bucketValue(idx)
		if v >= 1<<histSubBits {
			lo, hi := float64(v)*(1-2.0/(1<<histSubBits)), float64(v)*(1+2.0/(1<<histSubBits))
			if float64(rep) < lo || float64(rep) > hi {
				t.Fatalf("value %d: representative %d outside [%g, %g]", v, rep, lo, hi)
			}
		} else if rep != int64(v) {
			t.Fatalf("small value %d: representative %d not exact", v, rep)
		}
	}
}

// TestQuantileNearestRank pins the one rank rule exact percentiles use:
// index ceil(q·n)−1 of the ascending samples.
func TestQuantileNearestRank(t *testing.T) {
	ten := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want int
	}{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}, {0.01, 1}, {0, 1},
	} {
		if got := Quantile(ten, tc.q); got != tc.want {
			t.Errorf("Quantile(1..10, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := Quantile([]int64(nil), 0.5); got != 0 {
		t.Errorf("no samples: %v", got)
	}
}
