// Package lint is a repo-specific static-analysis suite enforcing the
// invariants pdnsec's reproducibility guarantees rest on: no wall-clock
// or global-rand reads in deterministic packages, context plumbed
// through blocking paths, no mutexes held across blocking operations,
// error chains preserved with %w, no goroutine launched without a
// cancellation or completion path, and telemetry names literal
// snake_case. See docs/lint.md for the rules and the suppression
// syntax.
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Diagnostic) on the standard library alone, so the
// suite builds offline with zero dependencies; migrating an analyzer to
// x/tools later is mechanical.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check, in the image of analysis.Analyzer.
// Exactly one of Run and RunModule is set: Run analyzers see one package
// at a time, RunModule analyzers (peertaint, lockorder) see the whole
// module at once plus its call graph, which is what lets them follow a
// value or a held lock across function and package boundaries.
type Analyzer struct {
	// Name identifies the analyzer in findings and suppressions,
	// e.g. "detrand".
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
	// RunModule inspects every module package at once, with the
	// interprocedural call graph built and shared across analyzers.
	RunModule func(*ModulePass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Fset returns the file set positioning the package.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Info returns the type-checker fact tables for the package.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// ModulePass carries one module-wide analyzer's view of the whole load.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	// Graph is the interprocedural call graph over Pkgs, shared by every
	// module analyzer of one Run.
	Graph *CallGraph

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkgs[0].Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Fset returns the file set positioning the module.
func (p *ModulePass) Fset() *token.FileSet { return p.Pkgs[0].Fset }

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line:col: [name] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// ignoreDirective matches the suppression comment syntax:
//
//	//lint:ignore pdnlint/<name> reason
//
// The directive suppresses findings of <name> on its own line or, when
// written as a standalone comment, on the line below. A reason is
// mandatory.
var ignoreDirective = regexp.MustCompile(`^//\s*lint:ignore\s+pdnlint/([a-z]+)\s+(\S.*)$`)

// suppressor indexes the ignore directives of one package. A directive
// suppresses findings of the named analyzer on its own line (trailing
// comment) and on the line below (standalone comment above the finding).
// Maps are keyed per file so line numbers don't collide across files.
type suppressor struct {
	byFile map[string]map[string]map[int]bool // file -> analyzer -> line
}

func newSuppressor(pkg *Package) *suppressor {
	s := &suppressor{byFile: make(map[string]map[string]map[int]bool)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreDirective.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byAn := s.byFile[pos.Filename]
				if byAn == nil {
					byAn = make(map[string]map[int]bool)
					s.byFile[pos.Filename] = byAn
				}
				lines := byAn[m[1]]
				if lines == nil {
					lines = make(map[int]bool)
					byAn[m[1]] = lines
				}
				lines[pos.Line] = true
				lines[pos.Line+1] = true
			}
		}
	}
	return s
}

func (s *suppressor) suppressed(d Diagnostic) bool {
	return s.byFile[d.Pos.Filename][d.Analyzer][d.Pos.Line]
}

// Run applies every analyzer to every package and returns the surviving
// findings ordered by position. Per-package analyzers run package by
// package; module analyzers run once over the whole load, sharing one
// call graph.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return run(pkgs, analyzers, true)
}

// run is Run with the //lint:ignore directives honoured or, when
// suppress is false, ignored, which lets a test check that every
// directive still has a finding to suppress.
func run(pkgs []*Package, analyzers []*Analyzer, suppress bool) ([]Diagnostic, error) {
	var out []Diagnostic
	var sups []*suppressor
	if suppress {
		for _, pkg := range pkgs {
			sups = append(sups, newSuppressor(pkg))
		}
	}
	suppressed := func(d Diagnostic) bool {
		for _, s := range sups {
			if s.suppressed(d) {
				return true
			}
		}
		return false
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			for _, d := range pass.diags {
				if !suppressed(d) {
					out = append(out, d)
				}
			}
		}
	}
	var graph *CallGraph
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if len(pkgs) == 0 {
			break
		}
		if graph == nil {
			graph = BuildCallGraph(pkgs)
		}
		pass := &ModulePass{Analyzer: a, Pkgs: pkgs, Graph: graph}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			if !suppressed(d) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// All returns the full pdnlint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Detrand, Ctxflow, Mutexspan, Errwrap, Goleak, Obsnames, Peertaint, Lockorder}
}

// ---- shared type/AST helpers used by the analyzers ----

// pkgBase returns the last path element of the package import path,
// which is how analyzers scope themselves to named packages (matching
// both internal/<name> in the repo and testdata/src/<name> in tests).
func pkgBase(p *Package) string {
	path := p.ImportPath
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil
// for builtins, conversions, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcPkgPath returns the import path of the package declaring f, or ""
// for builtins.
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isPkgCall reports whether call invokes one of the named package-level
// functions of the package with import path pkgPath.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) != pkgPath {
		return false
	}
	if f.Type().(*types.Signature).Recv() != nil {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context (through aliases
// like analyzer's ctxT).
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasContextParam reports whether any (possibly variadic) parameter of
// sig is a context.Context.
func hasContextParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// recvTypeString renders the receiver's base named type as pkgpath.Name
// (e.g. "sync.Mutex"), or "".
func recvTypeString(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// methodOn reports whether call is sel-style method call named name on a
// receiver whose base type is one of the fully-qualified types given.
func methodOn(info *types.Info, call *ast.CallExpr, name string, recvTypes ...string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return false
	}
	rt := recvTypeString(selection.Recv())
	for _, want := range recvTypes {
		if rt == want {
			return true
		}
	}
	return false
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}

// exportedFuncs yields every package-level exported function or method
// declaration with a body.
func exportedFuncs(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			out = append(out, fd)
		}
	}
	return out
}
