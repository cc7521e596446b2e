package lint

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/golden"
)

// loadTestdataGraph builds the call graph over one testdata package.
func loadTestdataGraph(t *testing.T, pkgdir string) (*CallGraph, *Package) {
	t.Helper()
	pkgs, err := Load(repoRoot(t), "./internal/lint/testdata/src/"+pkgdir)
	if err != nil {
		t.Fatal(err)
	}
	var pkg *Package
	for _, p := range pkgs {
		if strings.HasSuffix(p.ImportPath, "testdata/src/"+pkgdir) {
			pkg = p
		}
	}
	if pkg == nil {
		t.Fatalf("testdata package %s not loaded", pkgdir)
	}
	return BuildCallGraph([]*Package{pkg}), pkg
}

// nodeByName finds a node by display name.
func nodeByName(t *testing.T, g *CallGraph, name string) *FuncNode {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("node %s not in graph (have %d nodes)", name, len(g.Nodes))
	return nil
}

// calleeNames flattens a node's resolved callees.
func calleeNames(n *FuncNode) []string {
	var out []string
	for _, site := range n.Calls {
		for _, c := range site.Callees {
			out = append(out, c.Name)
		}
	}
	return out
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestCallGraphStatic(t *testing.T) {
	g, _ := loadTestdataGraph(t, "callgraph")
	static := nodeByName(t, g, "callgraph.static")
	names := calleeNames(static)
	if len(names) != 2 || names[0] != "callgraph.leaf" || names[1] != "callgraph.leaf" {
		t.Errorf("static calls = %v, want two callgraph.leaf edges", names)
	}
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	g, _ := loadTestdataGraph(t, "callgraph")
	dispatch := nodeByName(t, g, "callgraph.dispatch")
	if len(dispatch.Calls) != 1 || !dispatch.Calls[0].Dynamic {
		t.Fatalf("dispatch: want one dynamic call site, got %+v", dispatch.Calls)
	}
	names := calleeNames(dispatch)
	if !contains(names, "callgraph.English.Greet") || !contains(names, "callgraph.French.Greet") {
		t.Errorf("interface dispatch resolved to %v, want both Greet implementations", names)
	}
}

func TestCallGraphMethodValue(t *testing.T) {
	g, _ := loadTestdataGraph(t, "callgraph")
	call := nodeByName(t, g, "callgraph.callMethodValue")
	names := calleeNames(call)
	// e.Greet escaped as a func() string method value, so the dynamic
	// call must see at least the bound method among its candidates.
	if !contains(names, "callgraph.English.Greet") {
		t.Errorf("method-value call resolved to %v, want callgraph.English.Greet among candidates", names)
	}
}

func TestCallGraphClosures(t *testing.T) {
	g, _ := loadTestdataGraph(t, "callgraph")
	closures := nodeByName(t, g, "callgraph.closures")
	names := calleeNames(closures)
	if !contains(names, "callgraph.closures$1") {
		t.Errorf("local closure var call resolved to %v, want callgraph.closures$1", names)
	}
	if !contains(names, "callgraph.closures$2") {
		t.Errorf("direct literal call resolved to %v, want callgraph.closures$2", names)
	}
	// The nested literal belongs to its parent literal's node.
	inner := nodeByName(t, g, "callgraph.closures$2")
	if !contains(calleeNames(inner), "callgraph.closures$2$1") {
		t.Errorf("nested literal call resolved to %v, want callgraph.closures$2$1", calleeNames(inner))
	}
}

func TestCallGraphClosureToExternal(t *testing.T) {
	g, _ := loadTestdataGraph(t, "callgraph")
	sorted := nodeByName(t, g, "callgraph.sorted")
	if !contains(calleeNames(sorted), "callgraph.sorted$1") {
		t.Errorf("closure passed to sort.Slice not treated as invoked: %v", calleeNames(sorted))
	}
}

func TestCallGraphFuncVar(t *testing.T) {
	g, _ := loadTestdataGraph(t, "callgraph")
	fv := nodeByName(t, g, "callgraph.funcVar")
	names := calleeNames(fv)
	if !contains(names, "callgraph.leaf") || !contains(names, "callgraph.two") {
		t.Errorf("func-var call resolved to %v, want exactly its two assignments", names)
	}
	// Precision: the variable's assignments are visible, so unrelated
	// same-signature functions (static) must NOT be candidates.
	if contains(names, "callgraph.static") {
		t.Errorf("func-var call over-resolved to unrelated callgraph.static: %v", names)
	}
}

func TestCallGraphMethodLookup(t *testing.T) {
	g, pkg := loadTestdataGraph(t, "callgraph")
	scope := pkg.Types.Scope()
	obj := scope.Lookup("static")
	f, ok := obj.(*types.Func)
	if !ok {
		t.Fatal("static is not a func")
	}
	if g.NodeFor(f) == nil {
		t.Error("NodeFor(static) = nil")
	}
}

// TestCallGraphGolden pins the full deterministic rendering, so any
// resolution change shows up as a reviewable fixture diff. Regenerate
// with: PDNSEC_UPDATE_GOLDEN=1 go test ./internal/lint -run TestCallGraphGolden
func TestCallGraphGolden(t *testing.T) {
	g, _ := loadTestdataGraph(t, "callgraph")
	golden.Check(t, filepath.Join(repoRoot(t), "internal", "lint", "testdata", "callgraph.golden"), []byte(g.DebugString()))
}
