// This file holds the dispatch-backed detector: the same per-site and
// per-app scan functions as the sequential Pipeline, scheduled over
// the internal/dispatch engine and folded back in corpus order so
// Tables I-IV come out byte-identical at any worker count.

package detector

import (
	"context"
	"fmt"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/corpus"
	"github.com/stealthy-peers/pdnsec/internal/dispatch"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// Options tunes the parallel detection pipeline.
type Options struct {
	// Workers sizes the worker pool. <=0 → GOMAXPROCS.
	Workers int
	// Checkpoint is a path for resumable scan state ("" disables).
	// Entries are keyed by seed, so a checkpoint from a different run
	// configuration is ignored rather than mixed in.
	Checkpoint string
	// Metrics, when set, collects the scan's counters and latency
	// quantiles (shared across the site and app passes).
	Metrics *dispatch.Metrics
	// SimulateRTT adds one network round-trip's worth of latency per
	// fetched page (sites) or APK version (apps). The synthetic corpus
	// lives in memory, so this is how the engine's behavior under a
	// live crawl's I/O profile is studied and benchmarked; it does not
	// change any result.
	SimulateRTT time.Duration
	// Tracer, when set, records the scan's dispatch spans (run and
	// per-job). The detector itself stays clock-free; timestamps come
	// from the tracer's own injected clock.
	Tracer *obs.Tracer
}

// simulateFetches blocks for roundTrips×rtt or until ctx is done,
// standing in for the network time a live crawl would spend.
func simulateFetches(ctx context.Context, rtt time.Duration, roundTrips int) error {
	if rtt <= 0 || roundTrips <= 0 {
		return nil
	}
	t := time.NewTimer(rtt * time.Duration(roundTrips))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ParallelPipeline runs the detection flow with the work-dispatch
// engine: every site and app becomes one job, executed by a worker
// pool with optional checkpoint/resume, and the positional results are
// reduced in corpus order. Output is byte-identical to Pipeline for any
// Workers value.
func ParallelPipeline(ctx context.Context, c *corpus.Corpus, profiles []provider.Profile, seed int64, opts Options) (*Report, error) {
	scanner := NewWebScanner(profiles)

	cfg := dispatch.Config{
		Workers: opts.Workers,
		Metrics: opts.Metrics,
		Tracer:  opts.Tracer,
	}
	if opts.Metrics == nil {
		// Share one collector across both passes so the run spans report
		// the whole scan as a single job stream.
		cfg.Metrics = dispatch.NewMetrics()
	}
	if opts.Checkpoint != "" {
		ckpt, err := dispatch.OpenCheckpoint(opts.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("detector: %w", err)
		}
		defer ckpt.Close()
		cfg.Checkpoint = ckpt
	}

	siteJobs := make([]dispatch.Job[SiteOutcome], len(c.Sites))
	for i, site := range c.Sites {
		siteJobs[i] = dispatch.Job[SiteOutcome]{
			Key: fmt.Sprintf("site/%d/%s", seed, site.Domain),
			Do: func(ctx context.Context) (SiteOutcome, error) {
				out := scanner.ScanSiteFull(site, seed)
				// One round trip for the landing fetch plus one per
				// crawled page.
				if err := simulateFetches(ctx, opts.SimulateRTT, 1+out.Scan.PagesCrawled); err != nil {
					return SiteOutcome{}, err
				}
				return out, nil
			},
		}
	}
	siteOut, err := dispatch.New[SiteOutcome](cfg).Run(ctx, siteJobs)
	if err != nil {
		return nil, err
	}

	appJobs := make([]dispatch.Job[AppOutcome], len(c.Apps))
	for i, app := range c.Apps {
		appJobs[i] = dispatch.Job[AppOutcome]{
			Key: fmt.Sprintf("app/%d/%s", seed, app.Package),
			Do: func(ctx context.Context) (AppOutcome, error) {
				out := ScanAppFull(app, profiles, seed)
				if err := simulateFetches(ctx, opts.SimulateRTT, out.VersionsScanned); err != nil {
					return AppOutcome{}, err
				}
				return out, nil
			},
		}
	}
	appOut, err := dispatch.New[AppOutcome](cfg).Run(ctx, appJobs)
	if err != nil {
		return nil, err
	}

	return Reduce(c, siteOut, appOut), nil
}
