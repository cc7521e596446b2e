package dispatch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// squareJobs builds n jobs whose result is their index squared.
func squareJobs(n int, ran *atomic.Int64) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job-%04d", i),
			Do: func(context.Context) (int, error) {
				if ran != nil {
					ran.Add(1)
				}
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestRunReturnsResultsPositionally(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		e := New[int](Config{Workers: workers})
		res, err := e.Run(testCtx(t), squareJobs(300, nil))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range res {
			if r != i*i {
				t.Fatalf("workers=%d: res[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	e := New[string](Config{Workers: 8})
	res, err := e.Run(testCtx(t), nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v %v", res, err)
	}
	res, err = e.Run(testCtx(t), []Job[string]{{Key: "only", Do: func(context.Context) (string, error) { return "ok", nil }}})
	if err != nil || len(res) != 1 || res[0] != "ok" {
		t.Fatalf("single run: %v %v", res, err)
	}
}

// TestExhaustedAttemptsReportPerJobError: a job has one attempt. A job
// that fails it is not re-run, and its error names it without
// poisoning the rest of the batch.
func TestExhaustedAttemptsReportPerJobError(t *testing.T) {
	var attempts atomic.Int64
	e := New[int](Config{Workers: 3})
	jobs := []Job[int]{
		{Key: "good", Do: func(context.Context) (int, error) { return 7, nil }},
		{Key: "doomed", Do: func(context.Context) (int, error) {
			attempts.Add(1)
			return 0, errors.New("permanent failure")
		}},
	}
	res, err := e.Run(testCtx(t), jobs)
	if err == nil || !strings.Contains(err.Error(), `job "doomed"`) || !strings.Contains(err.Error(), "permanent failure") {
		t.Fatalf("want doomed-job error, got %v", err)
	}
	if res[0] != 7 || res[1] != 0 {
		t.Fatalf("partial results wrong: %v", res)
	}
	if attempts.Load() != 1 {
		t.Fatalf("attempts = %d, want 1", attempts.Load())
	}
	snap := e.Metrics().Snapshot()
	if snap.Done != 1 || snap.Failed != 1 || snap.Queued != 2 {
		t.Fatalf("metrics: %+v", snap)
	}
}

func TestCancellationStopsTheRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	jobs := make([]Job[int], 500)
	for i := range jobs {
		jobs[i] = Job[int]{Key: fmt.Sprintf("slow-%d", i), Do: func(ctx context.Context) (int, error) {
			if started.Add(1) == 4 {
				cancel()
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(5 * time.Millisecond):
				return 1, nil
			}
		}}
	}
	e := New[int](Config{Workers: 4})
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = e.Run(ctx, jobs)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 500 {
		t.Fatalf("cancellation should stop the sweep early, ran %d", n)
	}
}

// TestRunBoundsConcurrencyByWorkers: the pool runs at most Workers jobs
// at once and, with enough work, exactly that many.
func TestRunBoundsConcurrencyByWorkers(t *testing.T) {
	const workers = 3
	var running, peak atomic.Int64
	var full sync.Once
	release := make(chan struct{})
	jobs := make([]Job[int], 12)
	for i := range jobs {
		jobs[i] = Job[int]{Key: fmt.Sprintf("gate-%d", i), Do: func(ctx context.Context) (int, error) {
			n := running.Add(1)
			defer running.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			if n == workers {
				full.Do(func() { close(release) })
			}
			select {
			case <-release:
				return 1, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}}
	}
	if _, err := New[int](Config{Workers: workers}).Run(testCtx(t), jobs); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != workers {
		t.Fatalf("peak concurrency = %d, want %d", p, workers)
	}
}

func TestSharedMetricsAggregateAcrossEngines(t *testing.T) {
	m := NewMetrics()
	var ran atomic.Int64
	for range 2 {
		e := New[int](Config{Workers: 4, Metrics: m})
		if _, err := e.Run(testCtx(t), squareJobs(50, &ran)); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if snap.Done != 100 || snap.Queued != 100 || snap.InFlight != 0 {
		t.Fatalf("shared metrics: %+v", snap)
	}
	if snap.P50 < 0 || snap.P99 < snap.P50 {
		t.Fatalf("quantiles inconsistent: %+v", snap)
	}
}

func TestLatencyHistogramQuantiles(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 99; i++ {
		m.Latency().Observe(time.Millisecond.Nanoseconds())
	}
	m.Latency().Observe(time.Second.Nanoseconds())
	p50, p99 := m.Quantile(0.50), m.Quantile(0.99)
	if p50 < 800*time.Microsecond || p50 > 1200*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p99 < 800*time.Microsecond || p99 > 1200*time.Microsecond {
		t.Fatalf("p99 = %v, want ~1ms", p99)
	}
	if p100 := m.Quantile(1); p100 < 800*time.Millisecond {
		t.Fatalf("max quantile = %v, want ~1s", p100)
	}
}
