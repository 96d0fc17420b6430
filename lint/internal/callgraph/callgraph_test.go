package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"efdedup/lint/internal/load"
)

// buildGraph type-checks one synthetic package (no imports) and builds
// its call graph.
func buildGraph(t *testing.T, src string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := load.NewInfo()
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &load.Package{PkgPath: "p", Files: []*ast.File{f}, Types: tpkg, Info: info}
	return Build(fset, []*load.Package{pkg})
}

// edges returns caller's outgoing edges keyed by callee ID.
func edges(t *testing.T, g *Graph, caller string) map[string][]*Edge {
	t.Helper()
	n := g.Nodes[caller]
	if n == nil {
		t.Fatalf("no node %q; have %v", caller, ids(g))
	}
	out := make(map[string][]*Edge)
	for _, e := range n.Out {
		out[e.Callee.ID] = append(out[e.Callee.ID], e)
	}
	return out
}

func ids(g *Graph) []string {
	var out []string
	for _, n := range g.SortedNodes() {
		out = append(out, n.ID)
	}
	return out
}

// TestInterfaceFallback pins the conservative interface-call
// resolution: a call through an interface produces one edge per
// universe type implementing it — value receivers and pointer
// receivers both — and none to non-implementers.
func TestInterfaceFallback(t *testing.T) {
	g := buildGraph(t, `package p

type Doer interface{ Do() }

type A struct{}

func (A) Do() {}

type B struct{}

func (*B) Do() {}

// C has a Do with the wrong shape: not an implementation.
type C struct{}

func (C) Do(int) {}

func run(d Doer) { d.Do() }
`)
	out := edges(t, g, "p.run")
	for _, want := range []string{"(p.A).Do", "(*p.B).Do"} {
		es := out[want]
		if len(es) != 1 {
			t.Fatalf("edges run→%s = %d, want 1 (have %v)", want, len(es), out)
		}
	}
	if es := out["(p.C).Do"]; len(es) != 0 {
		t.Errorf("run→(p.C).Do exists; C does not implement Doer")
	}
}

// TestInterfaceFallbackViaEmbedding pins resolution when the
// implementation's method is promoted from an embedded type. The
// interface needs two methods, each supplied by a different embedded
// part, so only the embedder implements it — the edge must land on the
// embedded type's method, the body that actually runs.
func TestInterfaceFallbackViaEmbedding(t *testing.T) {
	g := buildGraph(t, `package p

type Doer interface {
	Do()
	Undo()
}

type base struct{}

func (*base) Do() {}

type undoer struct{}

func (undoer) Undo() {}

// E implements Doer only through its embedded parts.
type E struct {
	*base
	undoer
}

func run(d Doer) { d.Do() }
`)
	out := edges(t, g, "p.run")
	es := out["(*p.base).Do"]
	if len(es) != 1 {
		t.Fatalf("edges run→(*p.base).Do = %d, want 1 (have %v)", len(es), out)
	}
}

// TestOnlySynchronousCallsAreEdges pins what counts as an edge: a
// plain static call does; a call under a go statement (including inside
// the spawned literal) and a function value reference do not, because
// neither runs on the caller's stack while it holds its locks.
func TestOnlySynchronousCallsAreEdges(t *testing.T) {
	g := buildGraph(t, `package p

func helper() {}

func worker() {}

func takes(f func()) { f() }

func direct() { helper() }

func spawns() {
	go func() {
		worker()
	}()
}

func refs() { takes(worker) }
`)
	if es := edges(t, g, "p.direct")["p.helper"]; len(es) != 1 {
		t.Errorf("direct→helper = %+v, want one call edge", es)
	}
	if es := edges(t, g, "p.spawns")["p.worker"]; len(es) != 0 {
		t.Errorf("spawns→worker = %+v, want no edge", es)
	}
	if es := edges(t, g, "p.refs")["p.worker"]; len(es) != 0 {
		t.Errorf("refs→worker = %+v, want no edge", es)
	}
	if es := edges(t, g, "p.refs")["p.takes"]; len(es) != 1 {
		t.Errorf("refs→takes = %+v, want one call edge", es)
	}
}
