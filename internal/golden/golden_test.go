package golden

import (
	"os"
	"path/filepath"
	"testing"
)

func TestDiff(t *testing.T) {
	for _, tc := range []struct {
		name, want, got, diff string
	}{
		{"equal", "a\nb\n", "a\nb\n", ""},
		{"changed line", "a\nb\nc\n", "a\nB\nc\n",
			"--- want\n+++ got\n@@ -1,3 +1,3 @@\n a\n-b\n+B\n c\n"},
		{"appended", "a\n", "a\nb\n",
			"--- want\n+++ got\n@@ -1,1 +1,2 @@\n a\n+b\n"},
		{"scattered changes", "1\n2\n3\n", "x\n2\ny\n",
			"--- want\n+++ got\n@@ -1,3 +1,3 @@\n-1\n-2\n-3\n+x\n+2\n+y\n"},
		{"from empty", "", "a\n", "--- want\n+++ got\n@@ -1,0 +1,1 @@\n+a\n"},
		{"context", "1\n2\n3\n4\n5\n6\n7\n8\n9\n", "1\n2\n3\n4\nfive\n6\n7\n8\n9\n",
			"--- want\n+++ got\n@@ -2,7 +2,7 @@\n 2\n 3\n 4\n-5\n+five\n 6\n 7\n 8\n"},
		{"missing final newline", "a\n", "a",
			"--- want\n+++ got\n@@ -1,1 +1,1 @@\n-a\n+a\n\\ No newline at end of file\n"},
	} {
		if got := Diff(tc.want, tc.got); got != tc.diff {
			t.Errorf("%s: Diff =\n%s\nwant\n%s", tc.name, got, tc.diff)
		}
	}
}

func TestCheckRewritesUnderUpdate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "out.golden")
	t.Setenv(UpdateEnv, "1")
	Check(t, path, []byte("fresh\n"))
	if b, err := os.ReadFile(path); err != nil || string(b) != "fresh\n" {
		t.Fatalf("update wrote %q, %v", b, err)
	}
	t.Setenv(UpdateEnv, "")
	Check(t, path, []byte("fresh\n"))
}
