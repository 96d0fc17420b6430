// Package ctxcancel reports context cancel functions that are not
// called on every path. context.WithCancel/WithTimeout/WithDeadline
// each return a cancel func that releases the context's timer and
// subtree registration; a path that returns without calling it leaks
// those until the parent context ends — in a daemon whose parent is
// Background, forever. The retry/cluster hot paths create one
// context per attempt, so a missed cancel is a per-RPC leak, which is
// why the invariant is worth a path-sensitive check rather than a
// code-review habit.
//
// The analysis is the resleak shape over the same CFGs: the
// acquisition generates a "cancel outstanding" fact, killed by calling
// the cancel (inline or through a per-return defer chain), by its
// escape (returned, stored, passed, captured — ownership transfers),
// and by edge refinement on `cancel == nil` / `cancel != nil` guards,
// which keeps the conditional-timeout idiom
//
//	var cancel context.CancelFunc
//	if timeout > 0 { ctx, cancel = context.WithTimeout(ctx, timeout) }
//	...
//	if cancel != nil { cancel() }
//
// clean: on the nil arm there is nothing to call. Assigning the cancel
// to the blank identifier is reported immediately — the func is
// irrecoverable from there.
package ctxcancel

import (
	"go/ast"
	"go/token"
	"go/types"

	"efdedup/lint/analysis"
	"efdedup/lint/internal/cfg"
	"efdedup/lint/internal/dataflow"
)

// Analyzer is the ctxcancel pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxcancel",
	Doc:  "cancel funcs from context.WithCancel/WithTimeout/WithDeadline must be called on every path",
	Run:  run,
}

var withFuncs = []string{"WithCancel", "WithTimeout", "WithDeadline"}

func run(pass *analysis.Pass) error {
	if pass.CFGs == nil {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					check(pass, fn)
				}
			case *ast.FuncLit:
				check(pass, fn)
			}
			return true
		})
	}
	return nil
}

// acq is one cancel-func-producing assignment.
type acq struct {
	cancel types.Object
	pos    token.Pos
	what   string // "context.WithCancel" etc.
}

type facts map[*acq]bool

func bottom() facts { return facts{} }

func join(a, b facts) facts {
	out := facts{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func equal(a, b facts) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func check(pass *analysis.Pass, fn ast.Node) {
	g := pass.CFGs.For(fn)
	var acqs []*acq
	byCancel := map[types.Object]*acq{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			as, what, ok := withAssign(pass, n)
			if !ok {
				continue
			}
			id, ok := ast.Unparen(as.Lhs[1]).(*ast.Ident)
			if !ok {
				continue
			}
			if id.Name == "_" {
				pass.Reportf(as.Pos(), "the cancel function from %s is discarded; it must be called to release the context (defer cancel())", what)
				continue
			}
			obj := pass.ObjectOf(id)
			if obj == nil {
				continue
			}
			a := &acq{cancel: obj, pos: as.Pos(), what: what}
			acqs = append(acqs, a)
			byCancel[obj] = a
		}
	}
	if len(acqs) == 0 {
		return
	}

	res := dataflow.Solve(g, dataflow.Analysis[facts]{
		Dir:    dataflow.Forward,
		Bottom: bottom, Join: join, Equal: equal,
		Transfer: func(b *cfg.Block, in facts) facts {
			out := join(in, facts{})
			for _, n := range b.Nodes {
				applyNode(pass, n, byCancel, out)
			}
			return out
		},
		FlowEdge: func(e *cfg.Edge, f facts) facts {
			return refine(pass, e, f, byCancel)
		},
	})

	reported := map[*acq]bool{}
	for _, e := range g.Exit.Preds {
		f := res.Out[e.From]
		for _, a := range acqs {
			if !f[a] || reported[a] {
				continue
			}
			reported[a] = true
			retLine := pass.Fset.Position(returnSite(e.From)).Line
			pass.Reportf(a.pos, "the cancel function from %s is not called on every path (context leak): the return on line %d misses it; defer cancel() after the error check",
				a.what, retLine)
		}
	}
}

// withAssign matches `ctx, cancel := context.WithX(...)` (:= or =).
func withAssign(pass *analysis.Pass, n ast.Node) (*ast.AssignStmt, string, bool) {
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 2 || len(as.Rhs) != 1 {
		return nil, "", false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	for _, name := range withFuncs {
		if pass.IsPkgFunc(call, "context", name) {
			return as, "context." + name, true
		}
	}
	return nil, "", false
}

// applyNode kills facts for cancels called or escaping in this node,
// and regenerates on a fresh WithX assignment.
func applyNode(pass *analysis.Pass, n ast.Node, byCancel map[types.Object]*acq, s facts) {
	if as, _, ok := withAssign(pass, n); ok {
		if id, ok := ast.Unparen(as.Lhs[1]).(*ast.Ident); ok && id.Name != "_" {
			if a := byCancel[pass.ObjectOf(id)]; a != nil {
				s[a] = true
				return
			}
		}
	}
	kill := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if a := byCancel[pass.ObjectOf(id)]; a != nil {
				delete(s, a)
			}
		}
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// A literal capturing the cancel owns it now (the
			// goroutine-scoped cancel idiom).
			ast.Inspect(x.Body, func(y ast.Node) bool {
				if id, ok := y.(*ast.Ident); ok {
					kill(id)
				}
				return true
			})
			return false
		case *ast.CallExpr:
			kill(x.Fun) // cancel() itself
			for _, arg := range x.Args {
				kill(arg)
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				kill(r)
			}
		case *ast.SendStmt:
			kill(x.Value)
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					kill(kv.Value)
				} else {
					kill(el)
				}
			}
		case *ast.AssignStmt:
			// `_ = cancel` silences the compiler, not the leak: a
			// blank assignment transfers nothing.
			if allBlank(x.Lhs) {
				return true
			}
			for _, rhs := range x.Rhs {
				if _, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall {
					continue
				}
				kill(rhs) // aliased/stored away
			}
		}
		return true
	})
}

// refine kills the fact on arms where the cancel variable is known
// nil — the conditional-timeout idiom's clean arm.
func refine(pass *analysis.Pass, e *cfg.Edge, f facts, byCancel map[types.Object]*acq) facts {
	if e.Cond == nil {
		return f
	}
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return f
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	xNil := isNil(x)
	yNil := isNil(y)
	if xNil == yNil {
		return f
	}
	other := x
	if xNil {
		other = y
	}
	id, ok := other.(*ast.Ident)
	if !ok {
		return f
	}
	a := byCancel[pass.ObjectOf(id)]
	if a == nil {
		return f
	}
	eq := bin.Op == token.EQL
	assertsNil := (eq && !e.Negate) || (!eq && e.Negate)
	if !assertsNil {
		return f
	}
	out := join(f, facts{})
	delete(out, a)
	return out
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// returnSite walks back through defer blocks to the path's last source
// statement.
func returnSite(b *cfg.Block) token.Pos {
	for b.Kind == cfg.KindDefer && len(b.Preds) == 1 {
		b = b.Preds[0].From
	}
	if n := len(b.Nodes); n > 0 {
		return b.Nodes[n-1].Pos()
	}
	return token.NoPos
}
