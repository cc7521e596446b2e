package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/bench"
)

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no_such_workload"},
		{"-trace", "2"},
		{"-reps", "0"},
		{"-no-such-flag"},
		{"stray"},
		{"-compare", "only-one.json"},
		{"-compare", "missing-a.json", "missing-b.json"},
	} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a result on a usage error: %q", args, out.String())
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, goodput float64) string {
		r := bench.NewReport(bench.Options{Seed: 1, Reps: 3, Seconds: 15})
		r.Workloads = []*bench.Result{{Workload: "cdn_only", EndToEnd: map[string]bench.Value{
			"goodput_mbps": {Value: goodput, Unit: "MB/s", Reps: []float64{goodput * 0.99, goodput, goodput * 1.01}},
		}}}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := r.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.json", 1000), write("same.json", 990), write("slow.json", 600)

	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-compare", base, same}, &out, &errb); code != 0 {
		t.Errorf("A/A compare: exit %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "same") || strings.Contains(out.String(), "worse") {
		t.Errorf("A/A compare printed:\n%s", out.String())
	}
	out.Reset()
	if code := run(context.Background(), []string{"-compare", base, slow}, &out, &errb); code != 1 {
		t.Errorf("regressed compare: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("regressed compare printed:\n%s", out.String())
	}
}
