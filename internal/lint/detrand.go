package lint

import (
	"go/ast"
	"go/types"
)

// deterministicPkgs are the packages whose outputs (Tables I–IV, figure
// data, experiment reports) must be byte-identical run-to-run and at any
// scan width. Scoping is by package base name so the same
// rules apply to testdata packages in this suite's own tests.
var deterministicPkgs = map[string]bool{
	"netsim":      true,
	"detector":    true,
	"experiments": true,
	"provider":    true,
	"analyzer":    true,
	"chaos":       true,
	"swarmload":   true,
	"federation":  true,
}

// randAllowed are the math/rand package-level constructors that build
// seeded local sources; everything else at package level consults the
// process-global source and is banned in deterministic packages.
var randAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

// Detrand flags wall-clock reads (time.Now, time.Since), global-source
// math/rand calls, and map-order-dependent iteration feeding formatted
// output inside the deterministic packages. Passing time.Now itself as a
// default for an injectable clock field is allowed — only calls are
// flagged.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock and global-rand reads, and map-ordered output, " +
		"in packages whose results must be byte-identical across runs",
	Run: runDetrand,
}

func runDetrand(pass *Pass) error {
	if !deterministicPkgs[pkgBase(pass.Pkg)] {
		return nil
	}
	info := pass.Info()
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDetrandCall(pass, info, n)
			case *ast.RangeStmt:
				checkMapRangeOutput(pass, info, n)
			}
			return true
		})
	}
	return nil
}

func checkDetrandCall(pass *Pass, info *types.Info, call *ast.CallExpr) {
	f := calleeFunc(info, call)
	if f == nil || f.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch funcPkgPath(f) {
	case "time":
		if f.Name() == "Now" || f.Name() == "Since" || f.Name() == "Until" {
			pass.Reportf(call.Pos(), "call to time.%s in deterministic package; inject a clock (func() time.Time) or restructure around timers", f.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randAllowed[f.Name()] {
			pass.Reportf(call.Pos(), "call to global-source rand.%s in deterministic package; use a seeded *rand.Rand", f.Name())
		}
	}
}

// checkMapRangeOutput flags `for ... := range m` over a map whose body
// produces formatted output: Go randomizes map iteration order, so the
// produced bytes differ run to run. Sort the keys first.
func checkMapRangeOutput(pass *Pass, info *types.Info, rng *ast.RangeStmt) {
	tv, ok := info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // deferred/spawned bodies run outside the loop
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isOutputCall(info, call) {
			pass.Reportf(rng.Pos(), "map iteration order feeds output (%s); iterate sorted keys instead", pass.Fset().Position(call.Pos()))
			return false
		}
		return true
	})
}

// isOutputCall recognizes fmt printing and Write*-style methods — the
// sinks whose byte order the tables depend on.
func isOutputCall(info *types.Info, call *ast.CallExpr) bool {
	if isPkgCall(info, call, "fmt",
		"Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln", "Sprint", "Sprintf", "Sprintln") {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		// Only count genuine method calls (not conversions or funcs).
		if f, ok := info.Uses[sel.Sel].(*types.Func); ok {
			return f.Type().(*types.Signature).Recv() != nil
		}
	}
	return false
}
