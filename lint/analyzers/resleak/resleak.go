// Package resleak reports resources acquired but not released on every
// path out of the function: files (os.Open/Create/OpenFile/CreateTemp),
// connections (net.Dial*, any Dial/DialContext/DialWithPolicy method or
// function whose first result is a Closer), WALs and record logs
// (OpenWAL/OpenWALOptions, reclog.Open) and the module's
// node/cluster/server constructors —
// the exact shapes PRs 3-7 kept leaking on early-return error paths
// (daemon gets its node, the listen fails, the error return skips the
// Close and the WAL flusher goroutine lives forever).
//
// The check is a forward may-analysis over the function's CFG: the
// acquisition generates an "open" fact bound to the assigned variable,
// and the fact is killed by
//
//   - a Close call on the variable, inline or through a defer chain
//     (the per-return defer blocks make `defer f.Close()` count only
//     for returns after the registration — the early `return err`
//     before the defer still leaks);
//   - failure refinement: on the true arm of `err != nil` (or the
//     false arm of `err == nil`) for the err assigned alongside the
//     resource, the resource is nil and there is nothing to close —
//     likewise on the `res == nil` arm;
//   - escape: the invariant transfers with ownership when the value is
//     returned, passed to a call, stored into a field/element/map,
//     sent on a channel, aliased, address-taken or captured by a
//     function literal. Escape is positional: paths that leak before
//     the escape still report.
//
// A fact alive entering the exit block is a leak, reported at the
// acquisition with the offending return's line. Panic/os.Exit paths
// are not charged (the CFG ends them without an exit edge).
package resleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"efdedup/lint/analysis"
	"efdedup/lint/internal/cfg"
	"efdedup/lint/internal/dataflow"
)

// Analyzer is the resleak pass.
var Analyzer = &analysis.Analyzer{
	Name: "resleak",
	Doc:  "acquired files/connections/WALs/nodes must reach Close on every path (defer-aware; returning, storing or passing the value transfers the obligation)",
	Run:  run,
}

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

// acquisition is one tracked resource-producing assignment.
type acquisition struct {
	res  types.Object // the variable holding the resource
	err  types.Object // the error assigned alongside, or nil
	pos  token.Pos
	desc string // what was acquired, e.g. "os.Open" or "kvstore.NewNode"
}

// state is the dataflow fact: which acquisitions may still be open,
// and which resource each live error variable currently guards.
type state struct {
	open map[*acquisition]bool
	// errBind maps an error variable to the acquisition it was
	// assigned with. Flow-sensitive: a later reassignment of the same
	// err variable (the idiomatic `l, err := listen(...)` reuse) drops
	// the binding, so the nil-check of the NEW error cannot absolve
	// the OLD resource.
	errBind map[types.Object]*acquisition
}

func bottom() state {
	return state{open: map[*acquisition]bool{}, errBind: map[types.Object]*acquisition{}}
}

func clone(s state) state {
	out := bottom()
	for k := range s.open {
		out.open[k] = true
	}
	for k, v := range s.errBind {
		out.errBind[k] = v
	}
	return out
}

func join(a, b state) state {
	out := clone(a)
	for k := range b.open {
		out.open[k] = true
	}
	for k, v := range b.errBind {
		if cur, ok := out.errBind[k]; ok && cur != v {
			// Two paths bind the same err to different acquisitions:
			// the nil-check downstream cannot tell which one failed.
			delete(out.errBind, k)
			continue
		}
		out.errBind[k] = v
	}
	return out
}

func equal(a, b state) bool {
	if len(a.open) != len(b.open) || len(a.errBind) != len(b.errBind) {
		return false
	}
	for k := range a.open {
		if !b.open[k] {
			return false
		}
	}
	for k, v := range a.errBind {
		if b.errBind[k] != v {
			return false
		}
	}
	return true
}

func check(pass *analysis.Pass, fn ast.Node) {
	g := pass.CFGs.For(fn)
	acqs := collectAcquisitions(pass, g)
	if len(acqs) == 0 {
		return
	}
	byRes := make(map[types.Object]*acquisition, len(acqs))
	for _, a := range acqs {
		byRes[a.res] = a
	}

	res := dataflow.Solve(g, dataflow.Analysis[state]{
		Dir:    dataflow.Forward,
		Bottom: bottom, Join: join, Equal: equal,
		Transfer: func(b *cfg.Block, in state) state {
			out := clone(in)
			for _, n := range b.Nodes {
				applyNode(pass, n, acqs, byRes, &out)
			}
			return out
		},
		FlowEdge: func(e *cfg.Edge, f state) state {
			return refine(pass, e, f, byRes)
		},
	})

	// A fact alive entering the exit leaked on some return. Name the
	// return: walk each exit predecessor back through its defer chain
	// to the block holding the return statement.
	reported := map[*acquisition]bool{}
	for _, e := range g.Exit.Preds {
		f := res.Out[e.From]
		for _, a := range acqs {
			if !f.open[a] || reported[a] {
				continue
			}
			reported[a] = true
			retLine := pass.Fset.Position(returnSite(e.From)).Line
			pass.Reportf(a.pos, "%s result is not closed on every path: the return on line %d leaks it; close it before returning (or defer Close earlier)",
				a.desc, retLine)
		}
	}
}

// returnSite walks back through synthetic defer blocks to the source
// block that ended the path, returning its last node's position.
func returnSite(b *cfg.Block) token.Pos {
	for b.Kind == cfg.KindDefer && len(b.Preds) == 1 {
		b = b.Preds[0].From
	}
	if n := len(b.Nodes); n > 0 {
		return b.Nodes[n-1].Pos()
	}
	return token.NoPos
}

// collectAcquisitions scans every block for tracked assignments.
func collectAcquisitions(pass *analysis.Pass, g *cfg.CFG) []*acquisition {
	var out []*acquisition
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			desc, ok := trackedAcquisition(pass, call)
			if !ok {
				continue
			}
			resID, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
			if !ok || resID.Name == "_" {
				continue
			}
			resObj := pass.ObjectOf(resID)
			if resObj == nil {
				continue
			}
			a := &acquisition{res: resObj, pos: as.Pos(), desc: desc}
			if n := len(as.Lhs); n >= 2 { // the error comes last: (res, err) or (res, stats, err)
				if errID, ok := ast.Unparen(as.Lhs[n-1]).(*ast.Ident); ok && errID.Name != "_" {
					if obj := pass.ObjectOf(errID); obj != nil && isErrorType(obj.Type()) {
						a.err = obj
					}
				}
			}
			out = append(out, a)
		}
	}
	return out
}

// applyNode interprets one CFG node's effect on the fact state:
// acquisitions generate, Close calls and escapes kill.
func applyNode(pass *analysis.Pass, n ast.Node, acqs []*acquisition, byRes map[types.Object]*acquisition, s *state) {
	// Acquisition assignments regenerate the fact and (re)bind err.
	if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if _, tracked := trackedAcquisition(pass, call); tracked {
				if resID, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok && resID.Name != "_" {
					if a := byRes[pass.ObjectOf(resID)]; a != nil {
						// Arguments escape first (dialing with a parent
						// resource as arg hands it off), then generate.
						killEscapes(pass, n, byRes, s, a)
						s.open[a] = true
						if a.err != nil {
							s.errBind[a.err] = a
						}
						return
					}
				}
			}
		}
	}
	// Any other write to a bound err variable drops its binding.
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil {
					delete(s.errBind, obj)
				}
			}
		}
	}
	killCloses(pass, n, byRes, s)
	killEscapes(pass, n, byRes, s, nil)
}

// killCloses clears facts for resources receiving a Close (or Stop)
// call anywhere inside the node, including inside a defer-chain call.
func killCloses(pass *analysis.Pass, n ast.Node, byRes map[types.Object]*acquisition, s *state) {
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Stop") {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if a := byRes[pass.ObjectOf(id)]; a != nil {
				delete(s.open, a)
			}
		}
		return true
	})
}

// killEscapes clears facts for resources whose ownership leaves the
// function through this node: returned, passed as a call argument,
// stored into a non-local lvalue, aliased to another variable, sent on
// a channel, placed in a composite literal, address-taken or captured
// by a nested function literal. skip (when non-nil) exempts the
// acquisition being generated by this very node.
func killEscapes(pass *analysis.Pass, n ast.Node, byRes map[types.Object]*acquisition, s *state, skip *acquisition) {
	kill := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if a := byRes[pass.ObjectOf(id)]; a != nil && a != skip {
				delete(s.open, a)
			}
		}
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// Captured resources escape into the literal's lifetime.
			ast.Inspect(x.Body, func(y ast.Node) bool {
				if id, ok := y.(*ast.Ident); ok {
					kill(id)
				}
				return true
			})
			return false
		case *ast.CallExpr:
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
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				kill(x.X)
			}
		case *ast.AssignStmt:
			// res on the RHS aliases or stores it away — ownership
			// transfers. `_ = res` transfers nothing: assigning to
			// blank silences the compiler, not the leak.
			if allBlank(x.Lhs) {
				return true
			}
			for _, rhs := range x.Rhs {
				if _, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall {
					continue // call args handled by the CallExpr case
				}
				kill(rhs)
			}
		}
		return true
	})
}

// refine implements the branch-condition facts: on the arm where the
// acquisition's error is non-nil — or the resource itself is nil —
// there is nothing to close.
func refine(pass *analysis.Pass, e *cfg.Edge, f state, byRes map[types.Object]*acquisition) state {
	if e.Cond == nil {
		return f
	}
	// `if os.IsNotExist(err)` (and friends) on the true arm implies
	// err != nil — the predicates are always false for a nil error —
	// so the bound acquisition failed and there is nothing to close.
	if dead := errPredicateKill(pass, e, f); dead != nil {
		out := clone(f)
		delete(out.open, dead)
		return out
	}
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok {
		return f
	}
	id, isNilCmp, eq := nilComparison(bin)
	if !isNilCmp {
		return f
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return f
	}
	// This edge asserts "obj is nil" on the true arm of obj == nil or
	// the false arm of obj != nil; it asserts "obj is non-nil" on the
	// two opposite arms.
	assertsNil := (eq && !e.Negate) || (!eq && e.Negate)
	var dead *acquisition
	if assertsNil {
		// The resource itself is nil: nothing to close on this arm.
		dead = byRes[obj]
	} else if a, ok := f.errBind[obj]; ok {
		// The bound error is non-nil: the acquisition failed and the
		// resource never materialised.
		dead = a
	}
	if dead == nil {
		return f
	}
	out := clone(f)
	delete(out.open, dead)
	return out
}

// errPredicateKill decodes conditions of the form os.IsNotExist(err),
// os.IsExist(err), os.IsPermission(err), os.IsTimeout(err) or
// errors.Is(err, sentinel): on the arm where the predicate holds the
// error is necessarily non-nil, so an acquisition bound to that error
// never produced a live resource. Returns the dead acquisition, or nil
// when the edge proves nothing.
func errPredicateKill(pass *analysis.Pass, e *cfg.Edge, f state) *acquisition {
	if e.Negate {
		return nil // predicate false tells us nothing about err
	}
	call, ok := ast.Unparen(e.Cond).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	matched := pass.IsPkgFunc(call, "errors", "Is")
	for _, name := range []string{"IsNotExist", "IsExist", "IsPermission", "IsTimeout"} {
		matched = matched || pass.IsPkgFunc(call, "os", name)
	}
	if !matched {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return nil
	}
	return f.errBind[obj]
}

// nilComparison decodes `x == nil` / `x != nil` (either operand
// order), returning the non-nil identifier and whether the operator
// is ==.
func nilComparison(bin *ast.BinaryExpr) (*ast.Ident, bool, bool) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return nil, false, false
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	xNil, yNil := isNilIdent(x), isNilIdent(y)
	if xNil == yNil {
		return nil, false, false
	}
	other := x
	if xNil {
		other = y
	}
	id, ok := other.(*ast.Ident)
	if !ok {
		return nil, false, false
	}
	return id, true, bin.Op == token.EQL
}

func isNilIdent(e ast.Expr) bool {
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

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// trackedAcquisition classifies resource-producing calls. The callee
// must be a named function whose first result carries a Close method;
// within that, the tracked names are the stdlib openers and dialers,
// any Dial-family callee (interface methods included — the transport
// Network.Dial), the WAL and record-log openers, and the module's
// kvstore/cloudstore constructors.
func trackedAcquisition(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn, ok := pass.CalleeObject(call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 || !hasClose(sig.Results().At(0).Type()) {
		return "", false
	}
	name, pkg := fn.Name(), fn.Pkg().Path()
	qualified := shortPkg(pkg) + "." + name
	switch {
	case pkg == "os" && (name == "Open" || name == "OpenFile" || name == "Create" || name == "CreateTemp"):
		return qualified, true
	case pkg == "net" && strings.HasPrefix(name, "Dial"):
		return qualified, true
	case name == "Dial" || name == "DialContext" || name == "DialTimeout" || name == "DialWithPolicy":
		return qualified, true
	case name == "OpenWAL" || name == "OpenWALOptions" || (name == "Open" && shortPkg(pkg) == "reclog"):
		return qualified, true
	case (name == "NewNode" || name == "NewCluster" || name == "NewServer") &&
		(shortPkg(pkg) == "kvstore" || shortPkg(pkg) == "cloudstore"):
		return qualified, true
	}
	return "", false
}

// hasClose reports whether t (or *t) has a Close method in its method
// set.
func hasClose(t types.Type) bool {
	if _, isPtr := t.(*types.Pointer); !isPtr {
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			t = types.NewPointer(t)
		}
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Close")
	_, ok := obj.(*types.Func)
	return ok
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
