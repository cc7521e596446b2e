package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxPkgs are the packages whose exported surfaces must accept a
// context.Context whenever they can block: the detector, and the
// signaling/interception layers whose handlers the paper's experiments
// cancel and time-bound.
var ctxPkgs = map[string]bool{
	"detector": true,
	"signal":   true,
	"mitm":     true,
	"analyzer": true,
}

// Ctxflow flags (a) exported functions in the scoped packages that
// perform blocking operations — channel sends/receives, selects without
// default, Wait calls, net/http calls — directly or via same-package
// callees, without accepting a context.Context, and (b) any call to
// context.Background or context.TODO below cmd/ (non-main packages),
// where a caller's context should be derived instead.
//
// Methods implementing io.Closer (Close() error) are exempt: Close is
// conventionally prompt and its signature is fixed by the interface.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "require context.Context on blocking exported APIs and forbid context.Background below cmd/",
	Run:  runCtxflow,
}

func runCtxflow(pass *Pass) error {
	info := pass.Info()
	if pass.Pkg.Types.Name() != "main" {
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isPkgCall(info, call, "context", "Background", "TODO") {
					pass.Reportf(call.Pos(), "context.%s below cmd/; accept a context.Context and derive from it", calleeFunc(info, call).Name())
				}
				return true
			})
		}
	}
	if !ctxPkgs[pkgBase(pass.Pkg)] {
		return nil
	}

	decls := packageFuncDecls(pass.Pkg)
	blocking := make(map[*types.Func]bool)
	for f, fd := range decls {
		if directlyBlocks(info, fd.Body) {
			blocking[f] = true
		}
	}
	propagateBlocking(info, decls, blocking)

	for f, fd := range decls {
		if !fd.Name.IsExported() || !blocking[f] {
			continue
		}
		sig := f.Type().(*types.Signature)
		if hasContextParam(sig) || isCloserMethod(fd, sig) {
			continue
		}
		pass.Reportf(fd.Name.Pos(), "exported %s blocks (channel/Wait/net operation) but takes no context.Context", fd.Name.Name)
	}
	return nil
}

// packageFuncDecls maps every package-level function and method with a
// body to its declaration.
func packageFuncDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if f, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out[f] = fd
			}
		}
	}
	return out
}

// directlyBlocks reports whether body contains a blocking operation in
// its own statements (function literals are skipped: goroutine and
// callback bodies block their own executors, not this function).
func directlyBlocks(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	visitBlocking(info, body, false, func(ast.Node, string) { found = true })
	return found
}

// visitBlocking walks n and calls report for every blocking operation:
// channel sends/receives, range over a channel, selects without a
// default, Wait and net/http calls (plus time.Sleep when includeSleep).
// Function literals are skipped — their bodies run on other goroutines.
// A select with a default clause is non-blocking, so its comm
// expressions are skipped while its clause bodies are still visited.
func visitBlocking(info *types.Info, n ast.Node, includeSleep bool, report func(n ast.Node, what string)) {
	visitClauseBodies := func(sel *ast.SelectStmt) {
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				for _, s := range cc.Body {
					visitBlocking(info, s, includeSleep, report)
				}
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				report(n, "blocking select")
			}
			visitClauseBodies(n)
			return false
		case *ast.SendStmt:
			report(n, "channel send")
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				report(n, "channel receive")
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					report(n, "range over channel")
				}
			}
		case *ast.CallExpr:
			if isBlockingCall(info, n) || (includeSleep && isPkgCall(info, n, "time", "Sleep")) {
				report(n, "potentially blocking call")
			}
		}
		return true
	})
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isBlockingCall recognizes the call forms treated as blocking: anything
// into net or net/http (dials, requests, conn reads/writes) and Wait on
// the sync primitives.
func isBlockingCall(info *types.Info, call *ast.CallExpr) bool {
	if methodOn(info, call, "Wait", "sync.WaitGroup", "sync.Cond") {
		return true
	}
	f := calleeFunc(info, call)
	if f == nil {
		return false
	}
	path := funcPkgPath(f)
	if path == "net" || path == "net/http" {
		return true
	}
	// Methods on net / net/http types reached through other packages
	// (e.g. an http.Client field) block too.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := info.Selections[sel]; ok {
			rt := recvTypeString(selection.Recv())
			if strings.HasPrefix(rt, "net.") || strings.HasPrefix(rt, "net/http.") {
				return true
			}
		}
	}
	return false
}

// propagateBlocking closes the blocking set over same-package static
// calls: a function calling a blocking same-package function blocks.
// `go f(args)` is excluded — f blocks the new goroutine, not the
// spawner — but its arguments still count, since they are evaluated on
// the spawning goroutine.
func propagateBlocking(info *types.Info, decls map[*types.Func]*ast.FuncDecl, blocking map[*types.Func]bool) {
	for changed := true; changed; {
		changed = false
		for f, fd := range decls {
			if blocking[f] {
				continue
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				if blocking[f] {
					return false
				}
				switch n := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.GoStmt:
					for _, arg := range n.Call.Args {
						ast.Inspect(arg, visit)
					}
					return false
				case *ast.CallExpr:
					if callee := calleeFunc(info, n); callee != nil && blocking[callee] {
						// Calls that already receive this function's context
						// still count: the rule is about offering callers a
						// context at the exported boundary.
						blocking[f] = true
						changed = true
					}
				}
				return true
			}
			ast.Inspect(fd.Body, visit)
		}
	}
}

// isCloserMethod reports whether fd is a Close() error method — the
// io.Closer shape, whose signature the interface fixes.
func isCloserMethod(fd *ast.FuncDecl, sig *types.Signature) bool {
	if fd.Recv == nil || fd.Name.Name != "Close" {
		return false
	}
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type())
}
