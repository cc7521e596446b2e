package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The lockorder fixture package is the cheapest tree with guaranteed
// findings: it only pulls in sync, and seeds ten violations. Tests run
// with the package directory as cwd, so patterns are relative to
// cmd/pdnlint.
const (
	lockorderFixture = "../../internal/lint/testdata/src/lockorder"
	brokenFixture    = "../../internal/lint/testdata/src/brokenimport"
)

// runLint drives run() exactly as main does, capturing both streams.
func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestExitCleanIsZero(t *testing.T) {
	// detrand has nothing to say about the lockorder fixture.
	code, stdout, stderr := runLint(t, "-only", "detrand", lockorderFixture)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run produced output:\n%s", stdout)
	}
}

func TestExitFindingsIsOne(t *testing.T) {
	code, stdout, stderr := runLint(t, "-only", "lockorder", lockorderFixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "[lockorder]") {
		t.Errorf("findings output missing analyzer tag:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("summary line missing from stderr:\n%s", stderr)
	}
}

func TestExitUsageErrorIsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-only", "nonesuch", lockorderFixture},
	} {
		if code, _, _ := runLint(t, args...); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
}

func TestUnknownAnalyzerNamesFullSuite(t *testing.T) {
	_, _, stderr := runLint(t, "-only", "nonesuch", lockorderFixture)
	for _, name := range []string{"peertaint", "lockorder", "detrand"} {
		if !strings.Contains(stderr, name) {
			t.Errorf("unknown-analyzer error does not list %q:\n%s", name, stderr)
		}
	}
}

func TestExitLoadErrorIsTwo(t *testing.T) {
	code, _, stderr := runLint(t, brokenFixture)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "failed to load") {
		t.Errorf("load failure not surfaced:\n%s", stderr)
	}
}

func TestJSONReport(t *testing.T) {
	code, stdout, stderr := runLint(t, "-json", "-only", "lockorder", lockorderFixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	var findings []jsonFinding
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("stdout is not a JSON finding array: %v\n%s", err, stdout)
	}
	if len(findings) == 0 {
		t.Fatal("JSON report is empty despite exit 1")
	}
	for _, f := range findings {
		if f.Analyzer != "lockorder" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
}

func TestJSONCleanIsEmptyArray(t *testing.T) {
	code, stdout, _ := runLint(t, "-json", "-only", "detrand", lockorderFixture)
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want empty array", stdout)
	}
}
