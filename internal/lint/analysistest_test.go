package lint

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// wantComment extracts the expectation regexps from a `// want "re"`
// comment, analysistest-style: multiple patterns — double- or
// backtick-quoted — may follow one want marker.
var wantComment = regexp.MustCompile("//\\s*want((?:\\s+(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`))+)")
var wantPattern = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// testdataDirs are the loadable packages under internal/lint/testdata/src
// (brokenimport and brokentype, which must fail to load, are
// TestLoadBrokenPackage's).
var testdataDirs = []string{"callgraph", "errwrap", "goleak", "lockorder", "mutexspan", "netsim", "obsnames", "peertaint", "signal"}

// testdata is the one Load of every testdataDirs package, shared by the
// analyzer and call-graph tests, so one go list and one type-check of
// the fixtures (and of the module packages they import) serve them all.
var testdata struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// testdataPackage returns internal/lint/testdata/src/<pkgdir> from the
// shared load.
func testdataPackage(t *testing.T, pkgdir string) *Package {
	t.Helper()
	testdata.once.Do(func() {
		patterns := make([]string, len(testdataDirs))
		for i, dir := range testdataDirs {
			patterns[i] = "./internal/lint/testdata/src/" + dir
		}
		testdata.pkgs, testdata.err = Load(repoRoot(t), patterns...)
	})
	if testdata.err != nil {
		t.Fatal(testdata.err)
	}
	// Testdata may import real repo packages (obsnames imports obs), in
	// which case the module deps come back too; analyze only the target.
	for _, p := range testdata.pkgs {
		if strings.HasSuffix(p.ImportPath, "testdata/src/"+pkgdir) {
			return p
		}
	}
	t.Fatalf("testdata package %s not among %d loaded packages", pkgdir, len(testdata.pkgs))
	return nil
}

// runAnalysisTest runs the analyzer over testdata/src/<pkgdir> (with
// suppression handling, so //lint:ignore directives can be exercised in
// testdata too), and verifies the findings against the want comments:
// every finding must be expected and every expectation must fire.
func runAnalysisTest(t *testing.T, a *Analyzer, pkgdir string) {
	t.Helper()
	pkg := testdataPackage(t, pkgdir)

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantComment.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range wantPattern.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", key, q, err)
					}
					wants[key] = append(wants[key], &want{re: regexp.MustCompile(pat)})
				}
			}
		}
	}

	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected finding matching %q did not fire", key, w.re)
			}
		}
	}
}
