package main

import (
	"context"
	"strings"
	"testing"
)

func TestRunRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		diag string
	}{
		{[]string{"-viewers", "0"}, "-viewers and -segments must be >= 1"},
		{[]string{"-segments", "-2"}, "-viewers and -segments must be >= 1"},
		{[]string{"-servers", "0"}, "-servers must be >= 1"},
		{[]string{"-servers", "-1"}, "-servers must be >= 1"},
		{[]string{"-scenario", "signal_crash", "-servers", "1"}, "needs -servers >= 3"},
	} {
		var out, errOut strings.Builder
		if code := run(context.Background(), tc.args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want usage error 2", tc.args, code)
		}
		if !strings.Contains(errOut.String(), tc.diag) {
			t.Errorf("run(%v) stderr missing diagnosis %q:\n%s", tc.args, tc.diag, errOut.String())
		}
		if !strings.Contains(errOut.String(), "Usage") {
			t.Errorf("run(%v) should print usage, got:\n%s", tc.args, errOut.String())
		}
	}
}

func TestRunRejectsUnknownScenarioAndFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-scenario", "meteor"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown scenario exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown scenario") {
		t.Errorf("stderr missing diagnosis:\n%s", errOut.String())
	}
	errOut.Reset()
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown flag exit = %d, want 2", code)
	}
}

func TestRunListsScenarios(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit = %d, stderr:\n%s", code, errOut.String())
	}
	for _, name := range []string{"peer_churn", "signal_partition", "signal_crash", "cdn_brownout", "polluted_wire"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestRunFederatedCrashScenario is the acceptance run: the chaos
// harness must pass end to end with -servers 3.
func TestRunFederatedCrashScenario(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-scenario", "signal_crash", "-servers", "3", "-seed", "20260805"}
	if code := run(context.Background(), args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d\nstderr:\n%s\nstdout:\n%s", args, code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "all invariants held") {
		t.Errorf("stdout missing verdict:\n%s", out.String())
	}
}
