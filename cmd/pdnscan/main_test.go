package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/golden"
)

func TestRunRejectsNegativeSitesAndApps(t *testing.T) {
	for _, args := range [][]string{
		{"-sites", "-1"},
		{"-apps", "-5"},
		{"-sites", "-3", "-apps", "-3"},
	} {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want usage error 2", args, code)
		}
		if !strings.Contains(errOut.String(), "must be non-negative") {
			t.Errorf("run(%v) stderr missing diagnosis:\n%s", args, errOut.String())
		}
		if !strings.Contains(errOut.String(), "Usage") {
			t.Errorf("run(%v) should print usage, got:\n%s", args, errOut.String())
		}
	}
}

func TestRunRejectsNonPositiveWorkers(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "0"},
		{"-workers", "-2"},
	} {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want usage error 2", args, code)
		}
		if !strings.Contains(errOut.String(), "-workers must be positive") {
			t.Errorf("run(%v) stderr missing diagnosis:\n%s", args, errOut.String())
		}
		if !strings.Contains(errOut.String(), "Usage") {
			t.Errorf("run(%v) should print usage, got:\n%s", args, errOut.String())
		}
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown flag exit = %d, want 2", code)
	}
}

func TestRunProducesTablesAndStats(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-sites", "60", "-apps", "30", "-workers", "4", "-stats",
		"-checkpoint", filepath.Join(t.TempDir(), "scan.ckpt")}
	if code := run(context.Background(), args, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"Table I", "Table II", "Table III", "Table IV", "dispatch: queued="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}

	// A second run over the same checkpoint resumes every job and
	// still prints identical tables.
	var out2, errOut2 strings.Builder
	if code := run(context.Background(), args, &out2, &errOut2); code != 0 {
		t.Fatalf("resumed run = %d, stderr:\n%s", code, errOut2.String())
	}
	if !strings.Contains(out2.String(), "resumed=") {
		t.Fatal("resumed run missing stats line")
	}
	tables := func(s string) string { return s[:strings.Index(s, "dispatch:")] }
	if tables(out.String()) != tables(out2.String()) {
		t.Fatal("resumed run diverged from the original tables")
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut strings.Builder
	if code := run(ctx, []string{"-sites", "100"}, &out, &errOut); code != 1 {
		t.Fatalf("cancelled run = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "context canceled") {
		t.Fatalf("stderr should mention cancellation:\n%s", errOut.String())
	}
}

// TestRunTablesGolden pins the default-size Tables I–IV at two seeds,
// and their independence of the worker count: every run must reproduce
// the committed file byte for byte.
func TestRunTablesGolden(t *testing.T) {
	for _, seed := range []string{"1", "42"} {
		for _, workers := range []string{"1", "16"} {
			var out, errOut strings.Builder
			if code := run(context.Background(), []string{"-seed", seed, "-workers", workers}, &out, &errOut); code != 0 {
				t.Fatalf("run -seed %s -workers %s = %d, stderr:\n%s", seed, workers, code, errOut.String())
			}
			golden.Check(t, filepath.Join("testdata", "tables_seed"+seed+".txt"), []byte(out.String()))
		}
	}
}
