// Package fanout runs one function over an index range on a fixed
// number of goroutines. It is the one worker pool of the detector's
// corpus scan and of swarmload's ramp and match waves.
package fanout

import (
	"context"
	"sync"
)

// Each runs fn(i) for every i in [0, n) on min(width, n) goroutines
// (at least one). Each goroutine takes the next index from one shared
// counter, so a caller that writes result i to slot i gets its results
// in index order whatever the scheduling. Each stops handing out
// indices at the first error fn returns, or once ctx is done, and
// returns that error (ctx's, if it is done when the workers finish).
func Each(ctx context.Context, width, n int, fn func(i int) error) error {
	var (
		mu       sync.Mutex
		next     int
		firstErr error
		wg       sync.WaitGroup
	)
	// take hands out the next index, or false once the range is used
	// up, an index has failed or ctx is done. It shares the lock that
	// records a failure, so no index is handed out after one.
	take := func(failed error) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = failed
		}
		if firstErr != nil || next >= n || ctx.Err() != nil {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for range min(max(width, 1), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			for i, ok := take(nil); ok; i, ok = take(err) {
				err = fn(i)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
