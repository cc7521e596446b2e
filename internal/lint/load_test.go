package lint

import (
	"errors"
	"go/types"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// repoRoot locates the module root from this source file's position.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// TestLoadModule loads the entire repository offline, the load path
// pdnlint itself uses, and checks that the load is one the analyzers can
// see through: a module package imported by another is the very package
// Load checked from source, and every //lint:ignore directive in the
// module still has the finding it suppresses once suppression is off. A
// loader that went blind (no Info, module packages read from export data)
// fails here instead of reporting a clean module.
func TestLoadModule(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded %d module packages, expected the whole repo", len(pkgs))
	}
	loaded := make(map[string]*types.Package, len(pkgs))
	for _, p := range pkgs {
		if p.Info == nil || p.Types == nil {
			t.Fatalf("%s: missing type info", p.ImportPath)
		}
		loaded[p.ImportPath] = p.Types
	}
	moduleImports := 0
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if want, ok := loaded[imp.Path()]; ok {
				moduleImports++
				if imp != want {
					t.Errorf("%s imports a %s other than the one Load checked", p.ImportPath, imp.Path())
				}
			}
		}
	}
	if moduleImports == 0 {
		t.Error("no module package imports another; the identity check saw nothing")
	}

	diags, err := run(pkgs, All(), false)
	if err != nil {
		t.Fatal(err)
	}
	directives := 0
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreDirective.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					directives++
					pos := p.Fset.Position(c.Pos())
					if !slices.ContainsFunc(diags, func(d Diagnostic) bool {
						return d.Analyzer == m[1] && d.Pos.Filename == pos.Filename &&
							(d.Pos.Line == pos.Line || d.Pos.Line == pos.Line+1)
					}) {
						t.Errorf("%s:%d: //lint:ignore pdnlint/%s suppresses no %s finding", pos.Filename, pos.Line, m[1], m[1])
					}
				}
			}
		}
	}
	if directives == 0 {
		t.Error("found no //lint:ignore directive in the module")
	}
}

// TestLoadBrokenPackage pins the -e load path: a package with an
// unresolvable import or a type error must come back as a *LoadError
// naming the broken package — not as an opaque go-list or type-checker
// failure, and never as a silently partial module.
func TestLoadBrokenPackage(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		want []string
	}{
		{"brokenimport", []string{"does-not-exist"}},
		{"brokentype", []string{"testdata/src/brokentype: ", "cannot use"}},
	} {
		t.Run(tc.dir, func(t *testing.T) {
			pkgs, err := Load(repoRoot(t), "./internal/lint/testdata/src/"+tc.dir)
			if err == nil {
				t.Fatalf("Load succeeded with %d packages, want *LoadError", len(pkgs))
			}
			var lerr *LoadError
			if !errors.As(err, &lerr) {
				t.Fatalf("Load error = %T %v, want *LoadError", err, err)
			}
			if len(lerr.Problems) == 0 {
				t.Fatal("LoadError carries no problems")
			}
			msg := lerr.Error()
			for _, want := range tc.want {
				if !strings.Contains(msg, want) {
					t.Errorf("LoadError does not contain %q:\n%s", want, msg)
				}
			}
			if pkgs != nil {
				t.Errorf("Load returned %d packages alongside the error; partial modules must not be analyzed", len(pkgs))
			}
		})
	}
}

// TestLoadValidUnaffectedByErrFlag guards the happy path under -e: a
// clean explicit pattern still loads exactly as before.
func TestLoadValidUnaffectedByErrFlag(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./internal/privacy")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range pkgs {
		if strings.HasSuffix(p.ImportPath, "internal/privacy") {
			found = true
		}
	}
	if !found {
		t.Errorf("internal/privacy not among %d loaded packages", len(pkgs))
	}
}
