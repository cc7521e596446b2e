// This file holds the parallel detector: the same per-site and per-app
// scan functions as the sequential Pipeline, fanned out over
// GOMAXPROCS goroutines and folded back in corpus order so Tables I-IV
// come out byte-identical at any width.

package detector

import (
	"context"
	"runtime"

	"github.com/stealthy-peers/pdnsec/internal/corpus"
	"github.com/stealthy-peers/pdnsec/internal/fanout"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// ParallelPipeline runs the detection flow with every site and app
// scanned on its own slot by a GOMAXPROCS-wide fan-out, then reduces
// the results in corpus order. Output is deeply equal to Pipeline's.
// The context's tracer (obs.FromContext), if any, records one
// detector_scan span per pass.
func ParallelPipeline(ctx context.Context, c *corpus.Corpus, profiles []provider.Profile, seed int64) (*Report, error) {
	scanner := NewWebScanner(profiles)
	siteOut, err := scanAll(ctx, "sites", len(c.Sites), func(i int) SiteOutcome {
		return scanner.ScanSiteFull(c.Sites[i], seed)
	})
	if err != nil {
		return nil, err
	}
	appOut, err := scanAll(ctx, "apps", len(c.Apps), func(i int) AppOutcome {
		return ScanAppFull(c.Apps[i], profiles, seed)
	})
	if err != nil {
		return nil, err
	}
	return Reduce(c, siteOut, appOut), nil
}

// scanAll runs scan(i) for every i in [0, n) on a GOMAXPROCS-wide
// fanout.Each and returns the results in index order: each scan writes
// only its own slot, so no locking is needed and scheduling cannot
// reorder the output. Workers stop taking indices once ctx is done,
// and scanAll then returns ctx's error. The pass is one detector_scan
// span on the context's tracer.
func scanAll[R any](ctx context.Context, pass string, n int, scan func(int) R) ([]R, error) {
	span := obs.FromContext(ctx).Begin("detector_scan", obs.A("pass", pass), obs.A("items", n))
	defer span.End()
	out := make([]R, n)
	err := fanout.Each(ctx, runtime.GOMAXPROCS(0), n, func(i int) error {
		out[i] = scan(i)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
