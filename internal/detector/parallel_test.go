package detector_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/corpus"
	"github.com/stealthy-peers/pdnsec/internal/detector"
	"github.com/stealthy-peers/pdnsec/internal/experiments"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

func renderTables(rep *detector.Report, c *corpus.Corpus) string {
	det := &experiments.DetectionResult{Report: rep, Corpus: c}
	return det.RenderTableI() + det.RenderTableII() + det.RenderTableIII() +
		det.RenderTableIV() + det.RenderResourceSquattingWild()
}

// TestParallelParity is the parallel detector's contract: for several
// seeds and fan-out widths, ParallelPipeline produces a Report deeply
// equal to the sequential one, and Tables I-IV render byte-identically.
func TestParallelParity(t *testing.T) {
	ctx := context.Background()
	profiles := provider.PublicProfiles()
	for _, seed := range []int64{1, 2, 7} {
		c := corpus.Generate(corpus.Params{Seed: seed, FillerSites: 300, FillerApps: 120})
		seq, err := detector.Pipeline(ctx, c, profiles, seed)
		if err != nil {
			t.Fatal(err)
		}
		golden := renderTables(seq, c)
		for _, procs := range []int{1, 4, 16} {
			prev := runtime.GOMAXPROCS(procs)
			par, err := detector.ParallelPipeline(ctx, c, profiles, seed)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("seed %d GOMAXPROCS %d: %v", seed, procs, err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("seed %d GOMAXPROCS %d: parallel Report differs from sequential", seed, procs)
			}
			if got := renderTables(par, c); got != golden {
				t.Errorf("seed %d GOMAXPROCS %d: rendered tables not byte-identical", seed, procs)
			}
		}
	}
}

func TestParallelPipelineProgressAndCancellation(t *testing.T) {
	profiles := provider.PublicProfiles()
	c := corpus.Generate(corpus.Params{Seed: 3, FillerSites: 100, FillerApps: 40})

	rep, err := detector.ParallelPipeline(context.Background(), c, profiles, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every app's slot was filled: an unscanned slot counts no versions.
	apks := 0
	for _, app := range c.Apps {
		apks += len(app.Versions)
	}
	if rep.APKsScanned != apks {
		t.Fatalf("scanned %d APKs, corpus has %d", rep.APKsScanned, apks)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := detector.ParallelPipeline(ctx, c, profiles, 3); err == nil {
		t.Fatal("cancelled parallel pipeline should fail")
	}

	// Sequential reference honors cancellation too.
	if _, err := detector.Pipeline(ctx, c, profiles, 3); err == nil {
		t.Fatal("cancelled sequential pipeline should fail")
	}
}
