package detector

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestScanAllReturnsResultsPositionally: result i is scan(i), whatever
// the fan-out width and the order in which the workers finish.
func TestScanAllReturnsResultsPositionally(t *testing.T) {
	for _, procs := range []int{1, 4, 16} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := scanAll(context.Background(), "test", 300, func(i int) int { return i * i })
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(res) != 300 {
			t.Fatalf("GOMAXPROCS=%d: len(res) = %d, want 300", procs, len(res))
		}
		for i, r := range res {
			if r != i*i {
				t.Fatalf("GOMAXPROCS=%d: res[%d] = %d, want %d", procs, i, r, i*i)
			}
		}
	}
}

func TestScanAllEmptyAndSingle(t *testing.T) {
	res, err := scanAll(context.Background(), "test", 0, func(int) string { return "never" })
	if err != nil || len(res) != 0 {
		t.Fatalf("empty scan: %v %v", res, err)
	}
	res, err = scanAll(context.Background(), "test", 1, func(int) string { return "ok" })
	if err != nil || len(res) != 1 || res[0] != "ok" {
		t.Fatalf("single scan: %v %v", res, err)
	}
}

// TestScanAllStopsOnCancel: once ctx is cancelled the workers take no
// new index, and scanAll returns the context's error.
func TestScanAllStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	_, err := scanAll(ctx, "test", 500, func(int) int {
		if started.Add(1) == 4 {
			cancel()
		}
		return 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 500 {
		t.Fatalf("cancellation should stop the scan early, ran %d", n)
	}
}

// TestScanAllBoundsWidthByGOMAXPROCS: the fan-out runs at most
// GOMAXPROCS scans at once and, with enough work, exactly that many.
func TestScanAllBoundsWidthByGOMAXPROCS(t *testing.T) {
	const procs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var running, peak atomic.Int64
	var full sync.Once
	release := make(chan struct{})
	_, err := scanAll(context.Background(), "test", 12, func(int) int {
		n := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		if n == procs {
			full.Do(func() { close(release) })
		}
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != procs {
		t.Fatalf("peak concurrency = %d, want %d", got, procs)
	}
}
