package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Peertaint is the interprocedural peer-identity taint analyzer: the
// static enforcement of the repo's privacy invariant (DESIGN.md §2a).
// The paper's §IV-D finding is that peer-assisted CDNs leak viewer IP
// addresses; this reproduction implements those protocol flows
// deliberately, so the invariant is not "no address ever moves" but
// "no peer-identifying value reaches an *observability or wire* sink
// unsanitized": log lines, trace attributes, metric label values,
// chaos fault-log fields, and ad-hoc wire payloads must only carry
// addresses after passing through internal/privacy.
//
// Sources: net.Conn.RemoteAddr() (any zero-arg RemoteAddr method),
// geoip DB.Lookup records (their coarse Country/City/ISP fields are
// exempt), and federation.Peerstore entries (Candidates).
//
// Sinks: log/fmt printing, obs.A trace-attribute values, obs
// CounterVec/GaugeVec label values, wire Codec.Send/Write and record
// Conn.Send payloads (the dtls and secure transports' one record
// layer), and chaos.Event field values.
//
// Sanitizers: internal/privacy Redact/RedactAddr/HashAddr/Truncate.
//
// The analysis is flow- and call-site-insensitive: taint lives on
// types.Object (locals, params, named results, struct fields — fields
// are instance-insensitive) plus a per-function "returns tainted"
// summary, propagated to a fixpoint over the module call graph. Calls
// into code outside the module pass taint through from receiver or
// arguments to results, except results of error, bool, or numeric
// type, which are declared identity-free. Packages that exist to
// *measure* the leak (attack, capture, experiments, detector,
// examples/*) are exempt as sinks — exposing addresses is their job.
var Peertaint = &Analyzer{
	Name:      "peertaint",
	Doc:       "forbid peer-identifying values (addresses, geo records) from reaching logs, traces, metric labels, chaos events, or ad-hoc wire payloads without passing internal/privacy sanitizers",
	RunModule: runPeertaint,
}

// taintFact is the provenance of one tainted object: where the value
// entered and the function-level path it took.
type taintFact struct {
	desc string // source description, e.g. "RemoteAddr()"
	pos  token.Pos
	path []string // function names, source first
}

// maxTaintPath bounds provenance chains (recursion, long pipelines).
const maxTaintPath = 12

// ptSinkExempt are the package bases whose purpose is reproducing the
// paper's attacks and measurements: their output *is* harvested peer
// data, so sinks there are not findings. Sources and propagation are
// still tracked through them.
var ptSinkExempt = map[string]bool{
	"attack":      true,
	"capture":     true,
	"experiments": true,
	"detector":    true,
}

// ptCoarseGeoFields are geoip.Record fields carrying k-anonymous,
// country-grade data — the §V-C geo-matching mitigation depends on
// exactly these being usable, so reading them sheds the taint.
var ptCoarseGeoFields = map[string]bool{"Country": true, "City": true, "ISP": true}

type ptState struct {
	pass    *ModulePass
	graph   *CallGraph
	objs    map[types.Object]*taintFact
	rets    map[*FuncNode]*taintFact
	changed bool
}

func runPeertaint(pass *ModulePass) error {
	st := &ptState{
		pass:  pass,
		graph: pass.Graph,
		objs:  make(map[types.Object]*taintFact),
		rets:  make(map[*FuncNode]*taintFact),
	}
	// Fixpoint: propagate until no object or summary changes. The
	// lattice is two-point per object, so the loop terminates; the
	// bound is belt and braces.
	for i := 0; i < 100; i++ {
		st.changed = false
		for _, node := range st.graph.Nodes {
			st.analyze(node)
		}
		if !st.changed {
			break
		}
	}
	for _, node := range st.graph.Nodes {
		st.checkSinks(node)
	}
	return nil
}

// markObj taints obj with fact, recording whether anything changed.
func (st *ptState) markObj(obj types.Object, fact *taintFact) {
	if obj == nil || fact == nil {
		return
	}
	if _, ok := st.objs[obj]; ok {
		return
	}
	st.objs[obj] = fact
	st.changed = true
}

// extendPath returns fact with fn appended to its hop list.
func extendPath(fact *taintFact, fn string) *taintFact {
	if fact == nil {
		return nil
	}
	if n := len(fact.path); n > 0 && fact.path[n-1] == fn || n >= maxTaintPath {
		return fact
	}
	next := &taintFact{desc: fact.desc, pos: fact.pos}
	next.path = append(append([]string(nil), fact.path...), fn)
	return next
}

// analyze walks one function body, propagating taint through
// assignments, calls, ranges, sends, and returns.
func (st *ptState) analyze(node *FuncNode) {
	info := node.Pkg.Info
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literal bodies are their own nodes
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			st.assign(node, info, n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			if len(n.Values) > 0 {
				lhs := make([]ast.Expr, len(n.Names))
				for i, id := range n.Names {
					lhs[i] = id
				}
				st.assign(node, info, lhs, n.Values)
			}
		case *ast.RangeStmt:
			if fact := st.eval(node, info, n.X); fact != nil {
				// Numeric range variables (slice indices, ledger counts)
				// are identity-free even when the container is tainted.
				if !identityFree(typeOf(info, n.Key)) {
					st.markLValue(info, n.Key, fact)
				}
				if !identityFree(typeOf(info, n.Value)) {
					st.markLValue(info, n.Value, fact)
				}
			}
		case *ast.IncDecStmt:
			st.keyTaint(node, info, n.X)
		case *ast.SendStmt:
			if fact := st.eval(node, info, n.Value); fact != nil {
				st.markLValue(info, n.Chan, fact)
			}
		case *ast.ReturnStmt:
			st.ret(node, info, n)
		case *ast.CallExpr:
			st.eval(node, info, n) // argument→parameter propagation
		}
		return true
	})
}

// keyTaint handles the key side of an index write: m[tainted] = v (or
// m[tainted]++) poisons the container itself, because an addr-keyed
// ledger leaks through iteration even when its values are clean counts.
func (st *ptState) keyTaint(node *FuncNode, info *types.Info, l ast.Expr) {
	ix, ok := ast.Unparen(l).(*ast.IndexExpr)
	if !ok {
		return
	}
	if fact := st.eval(node, info, ix.Index); fact != nil {
		st.markLValue(info, ix.X, fact)
	}
}

// assign handles n:n assignments and the 1-call:n-lhs tuple form.
func (st *ptState) assign(node *FuncNode, info *types.Info, lhs, rhs []ast.Expr) {
	for _, l := range lhs {
		st.keyTaint(node, info, l)
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		if fact := st.eval(node, info, rhs[0]); fact != nil {
			for _, l := range lhs {
				if identityFree(typeOf(info, l)) {
					continue // ok/err/count results of a tainted call
				}
				st.markLValue(info, l, fact)
			}
		}
		return
	}
	for i := range lhs {
		if i >= len(rhs) {
			break
		}
		if fact := st.eval(node, info, rhs[i]); fact != nil {
			st.markLValue(info, lhs[i], fact)
		}
	}
}

// ret merges tainted results into the function summary, including
// named results of bare returns.
func (st *ptState) ret(node *FuncNode, info *types.Info, r *ast.ReturnStmt) {
	if _, ok := st.rets[node]; ok {
		return
	}
	if len(r.Results) == 0 && node.Sig != nil {
		res := node.Sig.Results()
		for i := 0; i < res.Len(); i++ {
			if fact := st.objs[res.At(i)]; fact != nil {
				st.rets[node] = fact
				st.changed = true
				return
			}
		}
		return
	}
	for _, e := range r.Results {
		if fact := st.eval(node, info, e); fact != nil && !identityFree(typeOf(info, e)) {
			st.rets[node] = fact
			st.changed = true
			return
		}
	}
}

// markLValue taints the object behind an assignment target: a local,
// a named field (instance-insensitive), or the container of an index
// expression.
func (st *ptState) markLValue(info *types.Info, e ast.Expr, fact *taintFact) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		if obj := info.Defs[e]; obj != nil {
			st.markObj(obj, fact)
			return
		}
		st.markObj(info.Uses[e], fact)
	case *ast.SelectorExpr:
		st.markObj(info.Uses[e.Sel], fact)
	case *ast.IndexExpr:
		st.markLValue(info, e.X, fact)
	case *ast.StarExpr:
		st.markLValue(info, e.X, fact)
	}
}

// eval computes the taint of an expression, propagating call arguments
// into callee parameters as a side effect.
func (st *ptState) eval(node *FuncNode, info *types.Info, e ast.Expr) *taintFact {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return st.objs[obj]
		}
		return st.objs[info.Defs[e]]
	case *ast.SelectorExpr:
		return st.evalSelector(node, info, e)
	case *ast.CallExpr:
		return st.evalCall(node, info, e)
	case *ast.BinaryExpr:
		if e.Op == token.ADD { // string concatenation carries identity
			if fact := st.eval(node, info, e.X); fact != nil {
				return fact
			}
			return st.eval(node, info, e.Y)
		}
		return nil
	case *ast.UnaryExpr:
		return st.eval(node, info, e.X) // &x, <-ch, -x
	case *ast.StarExpr:
		return st.eval(node, info, e.X)
	case *ast.IndexExpr:
		return st.eval(node, info, e.X)
	case *ast.SliceExpr:
		return st.eval(node, info, e.X)
	case *ast.TypeAssertExpr:
		return st.eval(node, info, e.X)
	case *ast.KeyValueExpr:
		return st.eval(node, info, e.Value)
	case *ast.CompositeLit:
		// Struct literals are field-granular: a tainted element taints
		// the matching *field object*, never the whole value —
		// otherwise session{addr: tainted, id: clean} would poison
		// every field read, flagging intentional protocol flows.
		if t := typeOf(info, e); t != nil {
			if s, ok := t.Underlying().(*types.Struct); ok {
				st.structLit(node, info, e, s)
				return nil
			}
		}
		for _, elt := range e.Elts {
			if fact := st.eval(node, info, elt); fact != nil {
				return fact
			}
		}
		return nil
	}
	return nil
}

// structLit propagates tainted struct-literal elements onto their
// field objects (instance-insensitive, like all field taint).
func (st *ptState) structLit(node *FuncNode, info *types.Info, lit *ast.CompositeLit, s *types.Struct) {
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if fact := st.eval(node, info, kv.Value); fact != nil {
				if key, ok := kv.Key.(*ast.Ident); ok {
					st.markObj(info.Uses[key], fact)
				}
			}
			continue
		}
		if fact := st.eval(node, info, elt); fact != nil && i < s.NumFields() {
			st.markObj(s.Field(i), fact)
		}
	}
}

// evalSelector resolves field reads: declared source fields taint,
// declared coarse geo fields shed taint, tainted field objects and
// tainted container values propagate.
func (st *ptState) evalSelector(node *FuncNode, info *types.Info, sel *ast.SelectorExpr) *taintFact {
	obj := info.Uses[sel.Sel]
	field, isField := obj.(*types.Var)
	if isField && field.IsField() {
		owner := fieldOwnerName(info, sel)
		if ptCoarseGeoFields[field.Name()] && owner == "geoip.Record" {
			return nil
		}
		if fact := st.objs[field]; fact != nil {
			return fact
		}
		return st.eval(node, info, sel.X) // field of a tainted value
	}
	if obj != nil {
		if fact := st.objs[obj]; fact != nil {
			return fact
		}
	}
	return nil
}

// fieldOwnerName renders the base named type a field was selected
// from, as "pkgbase.Type" (empty for anonymous structs).
func fieldOwnerName(info *types.Info, sel *ast.SelectorExpr) string {
	selection, ok := info.Selections[sel]
	if !ok {
		return ""
	}
	full := recvTypeString(selection.Recv())
	if full == "" {
		return ""
	}
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		full = full[i+1:]
	}
	return full
}

// evalCall is the interprocedural step: sources start taint,
// sanitizers stop it, module callees receive argument taint in their
// parameters and contribute their return summaries, and unknown
// callees pass taint through.
func (st *ptState) evalCall(node *FuncNode, info *types.Info, call *ast.CallExpr) *taintFact {
	// Conversions preserve taint unless converting to an identity-free
	// type (counts, flags).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && !identityFree(tv.Type) {
			return st.eval(node, info, call.Args[0])
		}
		return nil
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsBuiltin() {
		return st.evalBuiltin(node, info, call)
	}

	callee := calleeFunc(info, call)
	if isSanitizer(callee) {
		// Arguments still evaluated so a tainted argument expression's
		// own propagation happened before this point; the result is clean.
		for _, a := range call.Args {
			st.eval(node, info, a)
		}
		return nil
	}
	if fact := sourceCall(node, info, call, callee); fact != nil {
		return fact
	}

	site := st.siteFor(node, call)

	// Propagate receiver and argument taint into module callees.
	var recvFact *taintFact
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if callee == nil || callee.Type().(*types.Signature).Recv() != nil {
			recvFact = st.eval(node, info, sel.X)
		}
	}
	argFacts := make([]*taintFact, len(call.Args))
	anyArg := recvFact
	for i, a := range call.Args {
		argFacts[i] = st.eval(node, info, a)
		if anyArg == nil {
			anyArg = argFacts[i]
		}
	}

	var result *taintFact
	if site != nil {
		for _, target := range site.Callees {
			if recvFact != nil && target.Sig != nil {
				st.markObj(target.Sig.Recv(), extendPath(recvFact, target.Name))
			}
			st.propagateArgs(target, argFacts)
			if ret := st.rets[target]; ret != nil && result == nil {
				result = extendPath(ret, node.Name)
			}
		}
		if len(site.Callees) > 0 {
			if result != nil && identityFree(typeOf(info, call)) {
				return nil
			}
			return result
		}
	}

	// Unknown callee (stdlib or unresolved dynamic): taint passes
	// through from inputs to identity-bearing results.
	if anyArg != nil && !identityFree(typeOf(info, call)) {
		return anyArg
	}
	return nil
}

// siteFor finds the resolved call site of call within node.
func (st *ptState) siteFor(node *FuncNode, call *ast.CallExpr) *CallSite {
	for _, s := range node.Calls {
		if s.Call == call {
			return s
		}
	}
	return nil
}

// propagateArgs marks the callee's parameters tainted where the
// matching argument is, folding extra variadic arguments onto the
// final parameter.
func (st *ptState) propagateArgs(target *FuncNode, argFacts []*taintFact) {
	if target.Sig == nil {
		return
	}
	params := target.Sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, fact := range argFacts {
		if fact == nil {
			continue
		}
		j := i
		if j >= params.Len() {
			j = params.Len() - 1
		}
		st.markObj(params.At(j), extendPath(fact, target.Name))
	}
}

// evalBuiltin: append carries element taint, everything else (len,
// cap, make, new, delete, min, max over counts) is identity-free.
func (st *ptState) evalBuiltin(node *FuncNode, info *types.Info, call *ast.CallExpr) *taintFact {
	name := ""
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		name = id.Name
	}
	if name == "append" {
		for _, a := range call.Args {
			if fact := st.eval(node, info, a); fact != nil {
				return fact
			}
		}
	}
	return nil
}

// identityFree reports types that cannot carry a recoverable peer
// identity: booleans, numerics, and errors. (Parse errors may echo
// input; accepting that gap keeps every err.Error() send from
// flagging — the declared precision cut, see docs/lint.md.)
func identityFree(t types.Type) bool {
	if t == nil {
		return false
	}
	if implementsError(t) {
		return true
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Info()&(types.IsBoolean|types.IsNumeric) != 0
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	// Idents introduced by a := range clause have no Types entry, only
	// a definition object.
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// isSanitizer matches the internal/privacy helpers.
func isSanitizer(f *types.Func) bool {
	if f == nil {
		return false
	}
	if path := funcPkgPath(f); path == "" || !strings.HasSuffix(path, "privacy") {
		return false
	}
	switch f.Name() {
	case "Redact", "RedactAddr", "HashAddr", "Truncate":
		return true
	}
	return false
}

// sourceCall matches the declared taint sources.
func sourceCall(node *FuncNode, info *types.Info, call *ast.CallExpr, f *types.Func) *taintFact {
	if f == nil {
		return nil
	}
	sig := f.Type().(*types.Signature)
	mk := func(desc string) *taintFact {
		return &taintFact{desc: desc, pos: call.Pos(), path: []string{node.Name}}
	}
	if sig.Recv() != nil {
		recv := recvBaseName(sig.Recv().Type())
		switch {
		case f.Name() == "RemoteAddr" && sig.Params().Len() == 0:
			return mk("RemoteAddr()")
		case f.Name() == "Lookup" && pkgBaseOfFunc(f) == "geoip":
			return mk("geoip.Lookup record")
		case f.Name() == "Candidates" && recv == "Peerstore" && pkgBaseOfFunc(f) != "federation":
			// federation.Peerstore stores bootstrap *server* addresses
			// — published infrastructure, not peer identity — so it is
			// carved out of the generic Peerstore-entries source.
			return mk("peerstore entries")
		}
		return nil
	}
	return nil
}

// recvBaseName returns the bare receiver type name ("Peerstore").
func recvBaseName(t types.Type) string {
	full := recvTypeString(t)
	if i := strings.LastIndexByte(full, '.'); i >= 0 {
		return full[i+1:]
	}
	return full
}

func pkgBaseOfFunc(f *types.Func) string {
	path := funcPkgPath(f)
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// ---- sink checking ----

// checkSinks walks a fully propagated function and reports tainted
// values reaching declared sinks.
func (st *ptState) checkSinks(node *FuncNode) {
	if ptSinkExempt[pkgBase(node.Pkg)] || strings.Contains(node.Pkg.ImportPath, "/examples/") {
		return
	}
	info := node.Pkg.Info
	for _, site := range node.Calls {
		st.checkSinkCall(node, info, site.Call)
	}
	// Struct-field sinks: chaos.Event fault-log fields, and the Trace
	// propagation fields the distributed-tracing protocol messages carry.
	// A propagated TraceContext is opaque hex by construction; anything
	// address-shaped assigned to these fields would ride the wire into
	// every downstream process's trace file, so they are sinks.
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			named := namedTypeName(typeOf(info, n))
			if named == "chaos.Event" {
				for _, elt := range n.Elts {
					if fact := st.eval(node, info, elt); fact != nil {
						st.report(node, elt.Pos(), "chaos event field", fact)
					}
				}
			}
			if ptTraceFieldOwner(named) {
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Trace" {
						continue
					}
					if fact := st.eval(node, info, kv.Value); fact != nil {
						st.report(node, kv.Value.Pos(), "trace propagation field", fact)
					}
				}
			}
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				owner := fieldOwnerName(info, sel)
				switch {
				case owner == "chaos.Event":
					if fact := st.eval(node, info, n.Rhs[i]); fact != nil {
						st.report(node, n.Rhs[i].Pos(), "chaos event field", fact)
					}
				case sel.Sel.Name == "Trace" && ptTraceFieldOwner(owner):
					if fact := st.eval(node, info, n.Rhs[i]); fact != nil {
						st.report(node, n.Rhs[i].Pos(), "trace propagation field", fact)
					}
				}
			}
		}
		return true
	})
}

// ptTraceFieldOwner reports whether a named type ("pkgbase.Type") is one
// of the protocol messages whose Trace field propagates an encoded
// obs.TraceContext across processes. Matched by type-name suffix, so
// fixtures can model the shape.
func ptTraceFieldOwner(owner string) bool {
	return strings.HasSuffix(owner, ".JoinRequest") ||
		strings.HasSuffix(owner, ".GetPeersReq") ||
		strings.HasSuffix(owner, ".Relay") ||
		strings.HasSuffix(owner, ".p2pMsg")
}

// namedTypeName renders a (possibly pointer) named type as
// "pkgbase.Name", or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	full := recvTypeString(t)
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		full = full[i+1:]
	}
	return full
}

// checkSinkCall classifies one call against the sink table.
func (st *ptState) checkSinkCall(node *FuncNode, info *types.Info, call *ast.CallExpr) {
	f := calleeFunc(info, call)
	if f == nil {
		return
	}
	name := f.Name()
	pkg := pkgBaseOfFunc(f)
	sig := f.Type().(*types.Signature)

	check := func(kind string, args []ast.Expr) {
		for _, a := range args {
			if fact := st.eval(node, info, a); fact != nil {
				st.report(node, call.Pos(), kind, fact)
				return
			}
		}
	}

	if sig.Recv() == nil {
		switch {
		case funcPkgPath(f) == "log":
			check("log output", call.Args)
		case funcPkgPath(f) == "fmt" && (name == "Print" || name == "Printf" || name == "Println"):
			check("log output", call.Args)
		case funcPkgPath(f) == "fmt" && (name == "Fprint" || name == "Fprintf" || name == "Fprintln"):
			if len(call.Args) > 1 {
				check("log output", call.Args[1:])
			}
		case pkg == "obs" && name == "A":
			if len(call.Args) == 2 {
				check("trace attribute", call.Args[1:2])
			}
		}
		return
	}

	recv := recvBaseName(sig.Recv().Type())
	switch {
	case funcPkgPath(f) == "log" && recv == "Logger":
		check("log output", call.Args)
	case pkg == "obs" && (recv == "CounterVec" || recv == "GaugeVec") && (name == "With" || name == "WithFunc"):
		if len(call.Args) >= 1 {
			check("metric label value", call.Args[:1])
		}
	case pkg == "wire" && recv == "Codec" && name == "Send":
		if len(call.Args) == 2 {
			check("wire frame payload", call.Args[1:])
		}
	case pkg == "wire" && recv == "Codec" && name == "Write":
		check("wire frame payload", call.Args)
	case pkg == "record" && recv == "Conn" && (name == "Send" || name == "SendParts"): // both transports' Conn embed it
		check("peer data-channel payload", call.Args)
	}
}

// report emits one finding with the source→sink provenance path.
func (st *ptState) report(node *FuncNode, pos token.Pos, kind string, fact *taintFact) {
	src := st.pass.Fset().Position(fact.pos)
	path := fact.path
	if n := len(path); n == 0 || path[n-1] != node.Name {
		path = append(append([]string(nil), path...), node.Name)
	}
	st.pass.Reportf(pos, "peer-identifying value from %s (%s:%d) reaches %s; path: %s; sanitize with internal/privacy",
		fact.desc, filepath.Base(src.Filename), src.Line, kind, strings.Join(path, " -> "))
}

var _ = fmt.Sprintf // keep fmt for future debug hooks
