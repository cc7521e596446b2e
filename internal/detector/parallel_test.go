package detector_test

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/corpus"
	"github.com/stealthy-peers/pdnsec/internal/detector"
	"github.com/stealthy-peers/pdnsec/internal/dispatch"
	"github.com/stealthy-peers/pdnsec/internal/experiments"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

func renderTables(rep *detector.Report, c *corpus.Corpus) string {
	det := &experiments.DetectionResult{Report: rep, Corpus: c}
	return det.RenderTableI() + det.RenderTableII() + det.RenderTableIII() +
		det.RenderTableIV() + det.RenderResourceSquattingWild()
}

// TestParallelParity is the tentpole's contract: for multiple seeds
// and worker counts, the dispatch-backed pipeline produces a Report
// deeply equal to the sequential one, and Tables I-IV render
// byte-identically.
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
		for _, workers := range []int{1, 4, 16} {
			par, err := detector.ParallelPipeline(ctx, c, profiles, seed, detector.Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("seed %d workers %d: parallel Report differs from sequential", seed, workers)
			}
			if got := renderTables(par, c); got != golden {
				t.Errorf("seed %d workers %d: rendered tables not byte-identical", seed, workers)
			}
		}
	}
}

func TestParallelPipelineCheckpointResume(t *testing.T) {
	ctx := context.Background()
	profiles := provider.PublicProfiles()
	c := corpus.Generate(corpus.Params{Seed: 5, FillerSites: 100, FillerApps: 40})
	seq, err := detector.Pipeline(ctx, c, profiles, 5)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "scan.ckpt")
	m1 := dispatch.NewMetrics()
	first, err := detector.ParallelPipeline(ctx, c, profiles, 5, detector.Options{Workers: 8, Checkpoint: path, Metrics: m1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, first) {
		t.Fatal("checkpointed run differs from sequential")
	}
	if snap := m1.Snapshot(); snap.Resumed != 0 || snap.Done == 0 {
		t.Fatalf("first run metrics: %+v", snap)
	}

	// The re-run resumes every job from the checkpoint and still
	// reduces to the same report.
	m2 := dispatch.NewMetrics()
	second, err := detector.ParallelPipeline(ctx, c, profiles, 5, detector.Options{Workers: 8, Checkpoint: path, Metrics: m2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, second) {
		t.Fatal("resumed run differs from sequential")
	}
	snap := m2.Snapshot()
	if snap.Done != 0 || snap.Resumed != int64(len(c.Sites)+len(c.Apps)) {
		t.Fatalf("resume metrics: %+v (corpus %d sites %d apps)", snap, len(c.Sites), len(c.Apps))
	}

	// A different seed must not be satisfied by this checkpoint: its
	// keys are seed-scoped.
	m3 := dispatch.NewMetrics()
	if _, err := detector.ParallelPipeline(ctx, c, profiles, 6, detector.Options{Workers: 8, Checkpoint: path, Metrics: m3}); err != nil {
		t.Fatal(err)
	}
	if snap := m3.Snapshot(); snap.Resumed != 0 {
		t.Fatalf("seed-6 run resumed %d jobs from a seed-5 checkpoint", snap.Resumed)
	}
}

func TestParallelPipelineProgressAndCancellation(t *testing.T) {
	profiles := provider.PublicProfiles()
	c := corpus.Generate(corpus.Params{Seed: 3, FillerSites: 100, FillerApps: 40})

	m := dispatch.NewMetrics()
	_, err := detector.ParallelPipeline(context.Background(), c, profiles, 3, detector.Options{
		Workers: 4,
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap, want := m.Snapshot(), int64(len(c.Sites)+len(c.Apps)); snap.Done+snap.Failed != want {
		t.Fatalf("settled jobs = %d done + %d failed, want %d", snap.Done, snap.Failed, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := detector.ParallelPipeline(ctx, c, profiles, 3, detector.Options{Workers: 4}); err == nil {
		t.Fatal("cancelled parallel pipeline should fail")
	}

	// Sequential reference honors cancellation too.
	if _, err := detector.Pipeline(ctx, c, profiles, 3); err == nil {
		t.Fatal("cancelled sequential pipeline should fail")
	}
}
