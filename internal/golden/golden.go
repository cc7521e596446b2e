// Package golden compares a test's output with a committed file. The
// file is the released artifact: a change that moves the output fails
// the test until the regenerated file is committed, so review sees the
// change as a diff.
//
// Regenerate every golden in a package with
//
//	PDNSEC_UPDATE_GOLDEN=1 go test ./internal/<pkg>
package golden

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// UpdateEnv names the environment variable that, set to "1", makes
// Check rewrite the file instead of comparing with it.
const UpdateEnv = "PDNSEC_UPDATE_GOLDEN"

// Check compares got with the file at path and fails t with a unified
// diff (want → got) when they differ. Under PDNSEC_UPDATE_GOLDEN=1 it
// writes got to path instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if os.Getenv(UpdateEnv) == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("golden: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("golden: %v", err)
		}
		t.Logf("golden: wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (create it with %s=1)", err, UpdateEnv)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("golden: output differs from %s; if the change is meant, regenerate with %s=1 and commit the diff:\n%s",
			path, UpdateEnv, Diff(string(want), string(got)))
	}
}

// contextLines is the number of unchanged lines Diff shows around the
// change.
const contextLines = 3

// Diff returns a unified diff turning want into got ("" when they are
// equal). It has one hunk: everything between the lines the two share
// at the start and at the end, which is exact for the one-place changes
// a golden usually sees and still readable for scattered ones.
func Diff(want, got string) string {
	if want == got {
		return ""
	}
	a, b := splitLines(want), splitLines(got)
	pre := 0
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	suf := 0
	for suf < len(a)-pre && suf < len(b)-pre && a[len(a)-1-suf] == b[len(b)-1-suf] {
		suf++
	}
	from, to := max(0, pre-contextLines), min(len(a), len(a)-suf+contextLines)
	tail := to - (len(a) - suf)

	var out strings.Builder
	fmt.Fprintf(&out, "--- want\n+++ got\n@@ -%d,%d +%d,%d @@\n", from+1, to-from, from+1, len(b)-suf+tail-from)
	for _, part := range []struct {
		mark  string
		lines []string
	}{{" ", a[from:pre]}, {"-", a[pre : len(a)-suf]}, {"+", b[pre : len(b)-suf]}, {" ", a[len(a)-suf : to]}} {
		for _, line := range part.lines {
			out.WriteString(part.mark + line)
			if !strings.HasSuffix(line, "\n") {
				out.WriteString("\n\\ No newline at end of file\n")
			}
		}
	}
	return out.String()
}

// splitLines splits s into lines, each keeping its newline.
func splitLines(s string) []string {
	lines := strings.SplitAfter(s, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}
