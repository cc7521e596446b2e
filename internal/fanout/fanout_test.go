package fanout

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachStopsAtFirstError: Each returns the first error fn returned,
// not a later one, and hands out no index after it. Index 2 fails once
// the other three workers hold indices 0, 1 and 3; on one P the failing
// worker records its error before the released holders run, and they
// fail too.
func TestEachStopsAtFirstError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const width, failing = 4, 2
	first, late := errors.New("first"), errors.New("late")
	var started [100]atomic.Bool
	holding := make(chan struct{}, width-1)
	release := make(chan struct{})
	err := Each(context.Background(), width, len(started), func(i int) error {
		started[i].Store(true)
		if i != failing {
			holding <- struct{}{}
			<-release
			return late
		}
		for range width - 1 {
			<-holding
		}
		close(release)
		return first
	})
	if !errors.Is(err, first) {
		t.Fatalf("Each = %v, want the first error", err)
	}
	for i := range started {
		if want := i < width; started[i].Load() != want {
			t.Errorf("index %d started = %v, want %v", i, started[i].Load(), want)
		}
	}
}
