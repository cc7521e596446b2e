package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/golden"
	"github.com/stealthy-peers/pdnsec/internal/obs"
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

func TestRunRejectsUnknownFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown flag exit = %d, want 2", code)
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
// and their independence of the scan's width: every run must reproduce
// the committed file byte for byte at GOMAXPROCS 1 and 16.
func TestRunTablesGolden(t *testing.T) {
	for _, procs := range []int{1, 16} {
		prev := runtime.GOMAXPROCS(procs)
		for _, seed := range []string{"1", "42"} {
			var out, errOut strings.Builder
			if code := run(context.Background(), []string{"-seed", seed}, &out, &errOut); code != 0 {
				t.Errorf("run -seed %s at GOMAXPROCS %d = %d, stderr:\n%s", seed, procs, code, errOut.String())
				continue
			}
			golden.Check(t, filepath.Join("testdata", "tables_seed"+seed+".txt"), []byte(out.String()))
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestRunWritesTrace checks that -trace FILE writes a pdnsec-trace/1
// JSONL file holding the scan's detector_scan spans.
func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.jsonl")
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-sites", "30", "-apps", "15", "-trace", path}, &out, &errOut); code != 0 {
		t.Fatalf("run -trace = %d, stderr:\n%s", code, errOut.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if header, _, _ := strings.Cut(text, "\n"); !strings.Contains(header, `"schema":"`+obs.TraceSchema+`"`) {
		t.Fatalf("trace does not open with the %s header:\n%s", obs.TraceSchema, header)
	}
	if n := strings.Count(text, `"name":"detector_scan"`); n != 2 {
		t.Errorf("trace holds %d detector_scan spans, want one per pass (2):\n%s", n, text)
	}
}
