package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package of the main module, ready
// for analysis.
type Package struct {
	// ImportPath is the package's import path.
	ImportPath string
	// Dir is the directory holding the package sources.
	Dir string
	// Fset positions all files of the whole load, shared across packages.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, in go-list order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's fact tables for Files.
	Info *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Module     *struct{ Main bool }
	Error      *struct{ Err string }
}

// LoadError aggregates every package go list reported broken: a bad
// import, a syntax or type error, a build-constraint dead end. Surfacing
// all of them at once — instead of failing on the first or, worse,
// silently analyzing the partial module that did load — is what keeps
// "pdnlint passed" meaningful: a module that cannot be fully loaded is
// not verified.
type LoadError struct {
	// Problems holds one "importpath: reason" entry per broken package,
	// in go-list order.
	Problems []string
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("lint: %d package(s) failed to load:\n  %s",
		len(e.Problems), strings.Join(e.Problems, "\n  "))
}

// Load resolves patterns with `go list -e -export -json -deps` run in
// dir and type-checks the main module's listed packages from source,
// dependencies first. Every other import (the standard library, any
// other module) is read from the export data the go command built for
// it, through one shared importer, so only the module's own sources are
// parsed and checked. A module package that another imports resolves to
// the package Load checked from source, which keeps objects identical
// across the module for the call graph.
//
// Only the module's packages are returned, each with its Info. If any
// listed package carries a go-list Error (the -e flag turns hard
// failures, type errors included, into per-package diagnostics), Load
// returns a *LoadError naming every broken package rather than a partial
// module.
func Load(dir string, patterns ...string) ([]*Package, error) {
	raw, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var lerr LoadError
	exports := make(map[string]string, len(raw))
	for _, lp := range raw {
		if lp.Error != nil {
			lerr.Problems = append(lerr.Problems, lp.ImportPath+": "+strings.TrimSpace(lp.Error.Err))
		}
		exports[lp.ImportPath] = lp.Export
	}
	if len(lerr.Problems) > 0 {
		return nil, &lerr
	}
	fset := token.NewFileSet()
	fromExport := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := make(map[string]*types.Package)
	cfg := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return fromExport.Import(path)
	})}
	var out []*Package
	for _, lp := range raw {
		if lp.Module == nil || !lp.Module.Main {
			continue
		}
		files, err := parseFiles(fset, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		tpkg, err := cfg.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: typecheck %s: %w", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = tpkg
		out = append(out, &Package{
			ImportPath: lp.ImportPath,
			Dir:        lp.Dir,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	return out, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goList invokes the go command and decodes its JSON stream. -deps lists
// every package in dependency-before-dependent order, which lets the
// loader type-check in a single forward pass. -export has the go command
// build (or find in its cache) the export data of every listed package.
// -e keeps go list from dying on the first broken package: broken
// entries come back with a non-nil Error field, which Load aggregates
// into one *LoadError.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(stdout))
	var pkgs []listPkg
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}
