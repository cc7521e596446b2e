package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the interprocedural
// analyzers (peertaint, lockorder) run on. The construction is
// CHA-style on the standard library alone: static calls resolve to
// their single target, interface method calls resolve to every module
// type implementing the interface, and calls of function-typed values
// resolve to every module function or closure whose value is taken
// somewhere with an identical signature. The approximation
// over-reports edges and never drops one, which is the right polarity
// for both clients: taint that might flow is reported, a lock that
// might be acquired is ordered.

// FuncNode is one function in the call graph: a declared function or
// method (Obj set) or a function literal (Lit set). Only functions
// with bodies in the loaded module become nodes.
type FuncNode struct {
	// Obj is the declared function or method, nil for closures.
	Obj *types.Func
	// Lit is the function literal, nil for declared functions.
	Lit *ast.FuncLit
	// Body is the function's body block.
	Body *ast.BlockStmt
	// Pkg is the package the body lives in.
	Pkg *Package
	// Name is the stable display name: "pkg.Func", "pkg.Type.Method",
	// or "pkg.Func$1" for the first closure inside pkg.Func.
	Name string
	// Sig is the function's signature.
	Sig *types.Signature
	// Calls lists the call sites in the body, in source order. Calls
	// inside nested function literals belong to the literal's node.
	Calls []*CallSite
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Obj.Pos()
}

// CallSite is one call expression inside a FuncNode.
type CallSite struct {
	// Call is the expression.
	Call *ast.CallExpr
	// Callees are the module-internal targets (with bodies). Empty for
	// calls that only reach code outside the module.
	Callees []*FuncNode
	// Ext is the statically resolved non-module callee (stdlib),
	// nil when the call resolves inside the module or dynamically.
	Ext *types.Func
	// Dynamic marks interface dispatch and function-value calls, where
	// Callees is a CHA over-approximation rather than the single target.
	Dynamic bool
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	// Nodes in deterministic (position) order.
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
}

// NodeFor returns the node of a declared function, or nil.
func (g *CallGraph) NodeFor(obj *types.Func) *FuncNode { return g.byObj[obj] }

// cgBuilder carries the intermediate state of one construction.
type cgBuilder struct {
	graph *CallGraph
	// namedTypes are all package-level named types of the module, the
	// CHA universe interface calls resolve against.
	namedTypes []*types.Named
	// taken indexes address-taken functions by signature string: every
	// declared function, method value, or literal whose value escapes
	// into a variable, field, argument, or return.
	taken map[string][]*FuncNode
	// ifaceCache memoizes interface-method resolutions.
	ifaceCache map[*types.Func][]*FuncNode
	// funcVars maps function-typed variables to the literals or
	// declared functions assigned to them anywhere in the module. A
	// call through such a variable resolves to exactly these targets
	// instead of the signature-wide CHA set: `f := func(){...}; f()`
	// has one callee, not every func() in the module.
	funcVars map[*types.Var][]*FuncNode
}

// BuildCallGraph constructs the call graph over the loaded module
// packages. The result is deterministic: nodes and edges are ordered
// by source position.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	b := &cgBuilder{
		graph:      &CallGraph{byObj: make(map[*types.Func]*FuncNode), byLit: make(map[*ast.FuncLit]*FuncNode)},
		taken:      make(map[string][]*FuncNode),
		ifaceCache: make(map[*types.Func][]*FuncNode),
		funcVars:   make(map[*types.Var][]*FuncNode),
	}
	b.collectNodes(pkgs)
	b.collectNamedTypes(pkgs)
	b.collectAddressTaken(pkgs)
	b.collectFuncVars(pkgs)
	for _, n := range b.graph.Nodes {
		b.resolveCalls(n)
	}
	return b.graph
}

// collectNodes registers every declared function and function literal
// with a body, naming closures after their enclosing declaration.
func (b *cgBuilder) collectNodes(pkgs []*Package) {
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{
					Obj:  obj,
					Body: fd.Body,
					Pkg:  pkg,
					Name: declName(pkg, fd, obj),
					Sig:  obj.Type().(*types.Signature),
				}
				b.graph.Nodes = append(b.graph.Nodes, node)
				b.graph.byObj[obj] = node
				b.collectLits(pkg, node, fd.Body)
			}
		}
	}
	sort.Slice(b.graph.Nodes, func(i, j int) bool { return b.graph.Nodes[i].Pos() < b.graph.Nodes[j].Pos() })
}

// collectLits registers the function literals directly inside body
// (literals nested in other literals recurse with the inner node as
// parent, so "f$1$2" is the second literal inside f's first).
func (b *cgBuilder) collectLits(pkg *Package, parent *FuncNode, body *ast.BlockStmt) {
	n := 0
	inspectShallow(body, func(lit *ast.FuncLit) {
		n++
		sig, _ := pkg.Info.Types[lit].Type.(*types.Signature)
		node := &FuncNode{
			Lit:  lit,
			Body: lit.Body,
			Pkg:  pkg,
			Name: fmt.Sprintf("%s$%d", parent.Name, n),
			Sig:  sig,
		}
		b.graph.Nodes = append(b.graph.Nodes, node)
		b.graph.byLit[lit] = node
		b.collectLits(pkg, node, lit.Body)
	})
}

// inspectShallow visits the function literals immediately inside body,
// without descending into them.
func inspectShallow(body *ast.BlockStmt, fn func(*ast.FuncLit)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			fn(lit)
			return false
		}
		return true
	})
}

// declName renders the stable display name of a declaration.
func declName(pkg *Package, fd *ast.FuncDecl, obj *types.Func) string {
	base := pkgBase(pkg)
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return base + "." + obj.Name()
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	recv := types.ExprString(t)
	// Strip type parameters from generic receivers for display.
	if i := strings.IndexByte(recv, '['); i > 0 {
		recv = recv[:i]
	}
	return base + "." + recv + "." + obj.Name()
}

// collectNamedTypes gathers the CHA universe: every package-level named
// type of the module.
func (b *cgBuilder) collectNamedTypes(pkgs []*Package) {
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				b.namedTypes = append(b.namedTypes, named)
			}
		}
	}
}

// sigKey renders a signature for address-taken matching. Parameter
// names are not printed, so structurally identical function types from
// different packages collide — which is exactly the CHA intent.
func sigKey(sig *types.Signature) string {
	if sig == nil {
		return ""
	}
	return types.TypeString(sig, nil)
}

// addTaken registers node as address-taken under its value signature.
func (b *cgBuilder) addTaken(key string, node *FuncNode) {
	if node == nil || key == "" {
		return
	}
	for _, have := range b.taken[key] {
		if have == node {
			return
		}
	}
	b.taken[key] = append(b.taken[key], node)
}

// collectAddressTaken finds every function whose value escapes: a
// declared function or method referenced outside call position, and
// every function literal (a literal in call position is resolved as a
// direct call, but registering it too only adds edges the dynamic call
// might genuinely take).
func (b *cgBuilder) collectAddressTaken(pkgs []*Package) {
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			// callIdents are the identifiers naming a callee, excluded
			// from address-taken registration.
			callIdents := make(map[*ast.Ident]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					callIdents[fun] = true
				case *ast.SelectorExpr:
					callIdents[fun.Sel] = true
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					if node := b.graph.byLit[n]; node != nil {
						b.addTaken(sigKey(node.Sig), node)
					}
				case *ast.Ident:
					if callIdents[n] {
						return true
					}
					f, ok := info.Uses[n].(*types.Func)
					if !ok {
						return true
					}
					sig := f.Type().(*types.Signature)
					if recv := sig.Recv(); recv != nil {
						// Method value: the escaping value's signature
						// drops the receiver.
						valueSig := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
						if types.IsInterface(recv.Type()) {
							for _, impl := range b.resolveInterfaceMethod(f) {
								b.addTaken(sigKey(valueSig), impl)
							}
						} else if node := b.graph.byObj[f]; node != nil {
							b.addTaken(sigKey(valueSig), node)
						}
						return true
					}
					if node := b.graph.byObj[f]; node != nil {
						b.addTaken(sigKey(sig), node)
					}
				}
				return true
			})
		}
	}
	for key := range b.taken {
		nodes := b.taken[key]
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Pos() < nodes[j].Pos() })
	}
}

// collectFuncVars records, for every function-typed variable, the
// function values assigned to it (literals and declared functions).
// Variables assigned only such values resolve precisely at call sites;
// anything fancier (params, fields, channel receives) falls back to
// signature CHA.
func (b *cgBuilder) collectFuncVars(pkgs []*Package) {
	for _, pkg := range pkgs {
		info := pkg.Info
		record := func(lhs, rhs ast.Expr) {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				return
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() {
				return
			}
			if _, ok := v.Type().Underlying().(*types.Signature); !ok {
				return
			}
			var target *FuncNode
			switch rhs := ast.Unparen(rhs).(type) {
			case *ast.FuncLit:
				target = b.graph.byLit[rhs]
			case *ast.Ident:
				if f, ok := info.Uses[rhs].(*types.Func); ok {
					target = b.graph.byObj[f]
				}
			case *ast.SelectorExpr:
				if f, ok := info.Uses[rhs.Sel].(*types.Func); ok {
					target = b.graph.byObj[f]
				}
			}
			if target != nil {
				b.funcVars[v] = append(b.funcVars[v], target)
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i := range n.Lhs {
							record(n.Lhs[i], n.Rhs[i])
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) == len(n.Values) {
						for i := range n.Names {
							record(n.Names[i], n.Values[i])
						}
					}
				}
				return true
			})
		}
	}
	for v := range b.funcVars {
		nodes := b.funcVars[v]
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Pos() < nodes[j].Pos() })
	}
}

// resolveInterfaceMethod returns the module methods a call of the
// interface method m can dispatch to, in deterministic order.
func (b *cgBuilder) resolveInterfaceMethod(m *types.Func) []*FuncNode {
	if impls, ok := b.ifaceCache[m]; ok {
		return impls
	}
	recv := m.Type().(*types.Signature).Recv()
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var impls []*FuncNode
	seen := make(map[*FuncNode]bool)
	for _, named := range b.namedTypes {
		if types.IsInterface(named) {
			continue
		}
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
		f, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := b.graph.byObj[f]; node != nil && !seen[node] {
			seen[node] = true
			impls = append(impls, node)
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].Pos() < impls[j].Pos() })
	b.ifaceCache[m] = impls
	return impls
}

// resolveCalls populates node.Calls: every call expression in the
// body (excluding nested literal bodies), with its resolved targets.
func (b *cgBuilder) resolveCalls(node *FuncNode) {
	info := node.Pkg.Info
	walk := func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested literal bodies are their own nodes
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if site := b.resolveCall(node, info, call); site != nil {
			node.Calls = append(node.Calls, site)
		}
		return true
	}
	ast.Inspect(node.Body, walk)
}

// resolveCall classifies one call expression. It returns nil for
// conversions and builtins.
func (b *cgBuilder) resolveCall(node *FuncNode, info *types.Info, call *ast.CallExpr) *CallSite {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return nil
	}
	site := &CallSite{Call: call}

	// Direct call of a literal: func(){...}().
	if lit, ok := fun.(*ast.FuncLit); ok {
		if target := b.graph.byLit[lit]; target != nil {
			site.Callees = append(site.Callees, target)
		}
		return site
	}

	if f := calleeFunc(info, call); f != nil {
		sig := f.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
			site.Dynamic = true
			site.Callees = b.resolveInterfaceMethod(f)
			return site
		}
		if target := b.graph.byObj[f]; target != nil {
			site.Callees = append(site.Callees, target)
		} else {
			site.Ext = f
		}
		b.addClosureArgs(node, info, call, site)
		return site
	}

	// Call of a function-typed variable whose assignments are all
	// visible: resolve to exactly those targets.
	if id, ok := fun.(*ast.Ident); ok {
		if v, ok := info.Uses[id].(*types.Var); ok {
			if targets := b.funcVars[v]; len(targets) > 0 {
				site.Dynamic = true
				site.Callees = append(site.Callees, targets...)
				return site
			}
		}
	}

	// Call of any other function-typed value: CHA over address-taken
	// functions with the identical signature. Parameterless
	// no-result signatures (plain `func()`) are too common to match
	// against — every cleanup closure in the module would become a
	// callee — so those calls stay unresolved.
	if tv, ok := info.Types[call.Fun]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			site.Dynamic = true
			if sig.Params().Len()+sig.Results().Len() > 0 {
				site.Callees = append(site.Callees, b.taken[sigKey(sig)]...)
			}
			return site
		}
	}
	return site
}

// addClosureArgs treats function literals passed to functions outside
// the module (sort.Slice, ast.Inspect, ...) as invoked at the call
// site: the callee's body is invisible, and assuming the callback runs
// under the caller's locks and taint is the sound default.
func (b *cgBuilder) addClosureArgs(node *FuncNode, info *types.Info, call *ast.CallExpr, site *CallSite) {
	if site.Ext == nil {
		return
	}
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			if target := b.graph.byLit[lit]; target != nil {
				site.Callees = append(site.Callees, target)
			}
		}
	}
}

// DebugString renders the graph as deterministic "caller -> callee"
// lines, one call site per line, dynamic edges marked. The golden
// call-graph fixture pins this rendering.
func (g *CallGraph) DebugString() string {
	var sb strings.Builder
	for _, n := range g.Nodes {
		for _, site := range n.Calls {
			if len(site.Callees) == 0 {
				continue
			}
			names := make([]string, len(site.Callees))
			for i, c := range site.Callees {
				names[i] = c.Name
			}
			sort.Strings(names)
			kind := "->"
			if site.Dynamic {
				kind = "~>"
			}
			fmt.Fprintf(&sb, "%s %s %s\n", n.Name, kind, strings.Join(names, " "))
		}
	}
	return sb.String()
}
