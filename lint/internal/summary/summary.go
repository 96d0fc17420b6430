// Package summary computes per-function facts over the whole loaded
// universe and answers the two transitive questions the lock analyzers
// ask: which mutexes can this call chain acquire, and does this helper
// eventually touch the network. Facts are extracted once per lint run;
// transitive queries are memoized on the Set.
//
// A summary is deliberately positional — the one lock-region sweep the
// lockedio and lockorder analyzers share: Lock()/RLock() opens a held
// region, Unlock()/RUnlock() closes it, a deferred unlock keeps it open
// to the end of the body. An unlock inside a nested block that leaves
// the flow (ends in return, panic, break, continue or goto) closes a
// region opened before that block only to the end of the block: the
// early-exit path releases the lock, the statements after the block
// still hold it. Other branch-sensitive lock flows (lock in one arm,
// unlock in another) are outside its precision.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"efdedup/lint/internal/callgraph"
	"efdedup/lint/internal/load"
)

// LockSite is one mutex acquisition inside a function.
type LockSite struct {
	// Key is the module-wide lock identity: "(pkg.Type).field" for
	// struct-field mutexes, "pkg.var" for package-level mutexes, and ""
	// for locks without a stable module-wide identity (locals,
	// parameters) — those participate in held-region tracking but not
	// in the global acquisition-order graph.
	Key string
	// Expr is the receiver expression as written ("c.mu"), for
	// diagnostics.
	Expr string
	Pos  token.Pos
}

// LockEdge records "Inner was acquired while Outer was held", both with
// module-wide identities.
type LockEdge struct {
	Outer, Inner string
	Pos          token.Pos // acquisition site of Inner
}

// CallUnderLock records a synchronous call made while a mutex is held.
type CallUnderLock struct {
	// LockKey / LockExpr identify the held mutex (LockKey may be "").
	LockKey  string
	LockExpr string
	LockPos  token.Pos
	// CalleeID is the callgraph.FuncID of the callee; empty when the
	// callee has no loaded source.
	CalleeID string
	// CalleeName is the callee as written at the call site.
	CalleeName string
	Pos        token.Pos
}

// IOSite is one direct network-I/O call.
type IOSite struct {
	Desc string
	Pos  token.Pos
}

// IOUnderLock records a direct network-I/O call made while a mutex is
// held.
type IOUnderLock struct {
	IOSite
	LockExpr string
	LockPos  token.Pos
}

// FuncSummary is the per-function fact sheet.
type FuncSummary struct {
	ID   string
	Node *callgraph.Node

	Locks          []LockSite
	LockEdges      []LockEdge
	CallsUnderLock []CallUnderLock
	IO             []IOSite // synchronous direct I/O only
	IOUnderLock    []IOUnderLock
}

// Set is the module-wide summary store plus memoized transitive
// queries. Analyzers reach it through Pass.Summaries.
type Set struct {
	Fset  *token.FileSet
	Funcs map[string]*FuncSummary

	reachesIO map[string]*IOPath
	locksOf   map[string]map[string]token.Pos
	lockGraph *LockGraph
}

// Build extracts summaries for every function in the universe.
func Build(fset *token.FileSet, pkgs []*load.Package) *Set {
	g := callgraph.Build(fset, pkgs)
	s := &Set{
		Fset:      fset,
		Funcs:     make(map[string]*FuncSummary, len(g.Nodes)),
		reachesIO: make(map[string]*IOPath),
		locksOf:   make(map[string]map[string]token.Pos),
	}
	for _, node := range g.SortedNodes() {
		s.Funcs[node.ID] = summarize(node)
	}
	return s
}

// ForFunc returns the summary for a declared function object, or nil.
func (s *Set) ForFunc(fn *types.Func) *FuncSummary {
	if fn == nil {
		return nil
	}
	return s.Funcs[callgraph.FuncID(fn)]
}

// ---------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------

func summarize(node *callgraph.Node) *FuncSummary {
	fs := &FuncSummary{ID: node.ID, Node: node}
	if node.Decl != nil && node.Decl.Body != nil {
		sweepLocks(fs, node, netConnInterface(node.Pkg.Types))
	}
	return fs
}

// event is one lock, unlock, I/O or call occurrence in a body.
type event struct {
	pos  token.Pos
	kind int
	// lock/unlock: identity + expression. call: callee id + name.
	key, expr string
	// io: description.
	desc string
}

const (
	evLock = iota
	evUnlock
	evDeferUnlock
	evIO
	evCall
)

// sweepLocks fills Locks, LockEdges, CallsUnderLock, IO and IOUnderLock.
// Each function-literal body is swept as part of the enclosing
// declaration but with its own held-region state (a closure's lock
// region does not leak into the enclosing function and vice versa).
func sweepLocks(fs *FuncSummary, node *callgraph.Node, conn *types.Interface) {
	type body struct {
		block *ast.BlockStmt
		async bool
	}
	bodies := []body{{node.Decl.Body, false}}
	var findLits func(n ast.Node, async bool)
	findLits = func(n ast.Node, async bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch lit := m.(type) {
			case *ast.GoStmt:
				findLits(lit.Call, true)
				return false
			case *ast.FuncLit:
				bodies = append(bodies, body{lit.Body, async})
				findLits(lit.Body, async)
				return false
			}
			return true
		})
	}
	findLits(node.Decl.Body, false)

	for _, b := range bodies {
		sweepBody(fs, node, b.block, b.async, conn)
	}
}

// sweepBody runs the positional sweep over one body, skipping nested
// literals (they are swept separately) and go-statement subtrees (their
// calls do not run under the caller's locks; their lock acquisitions
// are still recorded via the async body sweep above).
func sweepBody(fs *FuncSummary, node *callgraph.Node, block *ast.BlockStmt, async bool, conn *types.Interface) {
	info := node.Pkg.Info
	var events []event
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch nn := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				return false
			case *ast.DeferStmt:
				walk(nn.Call, true)
				return false
			case *ast.CallExpr:
				if ev, ok := classify(info, node, nn, conn, inDefer); ok {
					events = append(events, ev)
				}
			}
			return true
		})
	}
	walk(block, false)
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	exits := exitBlocks(block)

	// A held lock whose until lies ahead was released on an early-exit
	// path and is held again once the sweep passes that path's end.
	type heldLock struct {
		key, expr string
		pos       token.Pos
		until     token.Pos
	}
	var held []heldLock
	// oldest returns the first lock held at pos (deterministic: the
	// oldest acquisition).
	oldest := func(pos token.Pos) (heldLock, bool) {
		for _, h := range held {
			if h.until <= pos {
				return h, true
			}
		}
		return heldLock{}, false
	}
	sticky := make(map[string]bool) // expr -> deferred unlock
	for _, ev := range events {
		switch ev.kind {
		case evLock:
			fs.Locks = append(fs.Locks, LockSite{Key: ev.key, Expr: ev.expr, Pos: ev.pos})
			for _, h := range held {
				if h.until > ev.pos {
					continue
				}
				if h.key != "" && ev.key != "" {
					fs.LockEdges = append(fs.LockEdges, LockEdge{Outer: h.key, Inner: ev.key, Pos: ev.pos})
				}
				if h.expr == ev.expr {
					// Re-acquiring a held sync mutex is an immediate
					// self-deadlock; surface it as a self-edge.
					key := ev.key
					if key == "" {
						key = ev.expr
					}
					fs.LockEdges = append(fs.LockEdges, LockEdge{Outer: key, Inner: key, Pos: ev.pos})
				}
			}
			held = append(held, heldLock{key: ev.key, expr: ev.expr, pos: ev.pos})
		case evUnlock:
			if sticky[ev.expr] {
				break
			}
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].expr == ev.expr && held[i].until <= ev.pos {
					// A lock taken inside the exit block is simply released.
					if start, end := exits.innermost(ev.pos); end.IsValid() && held[i].pos < start {
						held[i].until = end
					} else {
						held = append(held[:i], held[i+1:]...)
					}
					break
				}
			}
		case evDeferUnlock:
			sticky[ev.expr] = true
		case evIO:
			site := IOSite{Desc: ev.desc, Pos: ev.pos}
			if !async {
				fs.IO = append(fs.IO, site)
			}
			if h, ok := oldest(ev.pos); ok {
				fs.IOUnderLock = append(fs.IOUnderLock, IOUnderLock{IOSite: site, LockExpr: h.expr, LockPos: h.pos})
			}
		case evCall:
			if async {
				break
			}
			h, ok := oldest(ev.pos)
			if !ok {
				break
			}
			fs.CallsUnderLock = append(fs.CallsUnderLock, CallUnderLock{
				LockKey: h.key, LockExpr: h.expr, LockPos: h.pos,
				CalleeID: ev.key, CalleeName: ev.expr, Pos: ev.pos,
			})
		}
	}
}

// span is the source extent of an early-exit block.
type span struct{ pos, end token.Pos }

// spans are a body's early-exit blocks.
type spans []span

// exitBlocks lists the blocks and case clauses nested in body (not body
// itself, nor function literals, which are swept on their own) whose
// last statement leaves the flow: a return, a branch or a panic.
func exitBlocks(body *ast.BlockStmt) spans {
	var out spans
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch b := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			if b == body {
				return true
			}
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			return true
		}
		if len(list) > 0 && exits(list[len(list)-1]) {
			out = append(out, span{n.Pos(), n.End()})
		}
		return true
	})
	return out
}

// exits reports whether a statement leaves the enclosing flow.
func exits(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// innermost returns the extent of the smallest span containing pos, or
// token.NoPos twice when no span does. Spans nest, so the smallest one
// that contains pos is the one that starts last.
func (sp spans) innermost(pos token.Pos) (start, end token.Pos) {
	for _, s := range sp {
		if s.pos <= pos && pos < s.end && s.pos >= start {
			start, end = s.pos, s.end
		}
	}
	return start, end
}

// classify turns a call into a sweep event.
func classify(info *types.Info, node *callgraph.Node, call *ast.CallExpr, conn *types.Interface, inDefer bool) (event, bool) {
	if expr, name, ok := mutexOp(info, call); ok {
		key := lockIdentity(info, call)
		switch name {
		case "Lock", "RLock":
			if inDefer {
				return event{}, false
			}
			return event{pos: call.Pos(), kind: evLock, key: key, expr: expr}, true
		case "Unlock", "RUnlock":
			kind := evUnlock
			if inDefer {
				kind = evDeferUnlock
			}
			return event{pos: call.Pos(), kind: kind, key: key, expr: expr}, true
		}
		return event{}, false
	}
	if desc, ok := ioDesc(info, call, conn); ok {
		return event{pos: call.Pos(), kind: evIO, desc: desc}, true
	}
	if callee := calleeFunc(info, call); callee != nil {
		id := ""
		if !types.IsInterface(recvType(callee)) {
			id = callgraph.FuncID(callee)
		}
		return event{pos: call.Pos(), kind: evCall, key: id, expr: calleeDisplay(call, callee)}, true
	}
	return event{}, false
}

// ---------------------------------------------------------------------
// Type helpers
// ---------------------------------------------------------------------

// mutexOp matches sync.Mutex / sync.RWMutex Lock/Unlock/RLock/RUnlock
// calls, returning the receiver expression and method name.
func mutexOp(info *types.Info, call *ast.CallExpr) (expr, name string, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	fn, okFn := calleeObject(info, call).(*types.Func)
	if !okFn {
		return "", "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	named, okNamed := deref(recv.Type()).(*types.Named)
	if !okNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	if tn := named.Obj().Name(); tn != "Mutex" && tn != "RWMutex" {
		return "", "", false
	}
	return types.ExprString(sel.X), fn.Name(), true
}

// lockIdentity derives the module-wide identity of the mutex a
// Lock/Unlock call operates on, or "" when it has none (locals).
func lockIdentity(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		// Field mutex: identity is (owner type).field.
		fieldSel, okSel := info.Selections[x]
		if !okSel {
			// Package-qualified var: pkg.Mu. Must render identically to
			// the in-package `Mu` spelling below or cross-package edges
			// never join.
			if obj := info.Uses[x.Sel]; obj != nil && isPackageLevel(obj) {
				return shortPkg(obj.Pkg().Path()) + "." + obj.Name()
			}
			return ""
		}
		owner, okOwner := deref(fieldSel.Recv()).(*types.Named)
		if !okOwner || owner.Obj().Pkg() == nil {
			return ""
		}
		return "(" + shortPkg(owner.Obj().Pkg().Path()) + "." + owner.Obj().Name() + ")." + x.Sel.Name
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			return ""
		}
		if isPackageLevel(obj) {
			return shortPkg(obj.Pkg().Path()) + "." + obj.Name()
		}
		return ""
	}
	return ""
}

// shortPkg trims the module prefix for readable lock names: the full
// import path stays unambiguous within one module but is noisy in a
// diagnostic.
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// ioDesc reports whether the call performs network I/O directly, with a
// short description for diagnostics: calls into package net, methods on
// net.Conn implementations, Dial/DialContext methods, transport.Client
// Call/Close, and helpers taking a net.Conn argument — except
// constructors (New*), which only wrap the conn. Builtins and type
// conversions never do I/O even when a conn flows through them.
func ioDesc(info *types.Info, call *ast.CallExpr, conn *types.Interface) (string, bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := objectOf(info, id); obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
				return "", false
			}
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return "", false
	}
	obj := calleeObject(info, call)
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if conn != nil && (types.Implements(rt, conn) || implementsPtr(rt, conn)) {
				return "net.Conn." + fn.Name(), true
			}
			if fn.Name() == "Dial" || fn.Name() == "DialContext" {
				return fn.Name(), true
			}
			if named, okNamed := deref(rt).(*types.Named); okNamed {
				tobj := named.Obj()
				if tobj.Pkg() != nil && strings.HasSuffix(tobj.Pkg().Path(), "internal/transport") &&
					tobj.Name() == "Client" && (fn.Name() == "Call" || fn.Name() == "Close") {
					return "transport.Client." + fn.Name(), true
				}
			}
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "net" {
			return "net." + fn.Name(), true
		}
	}
	if fn, ok := obj.(*types.Func); ok && strings.HasPrefix(fn.Name(), "New") {
		return "", false
	}
	if conn != nil {
		for _, arg := range call.Args {
			if tv, ok := info.Types[arg]; ok && tv.Type != nil {
				if types.Implements(tv.Type, conn) || implementsPtr(tv.Type, conn) {
					return "call passing net.Conn", true
				}
			}
		}
	}
	return "", false
}

// calleeObject resolves the called function or method, like
// analysis.Pass.CalleeObject (duplicated here to keep the import graph
// acyclic: analysis imports summary).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o, ok := objectOf(info, fn).(*types.Func); ok {
			return o
		}
		return nil
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		if o, ok := objectOf(info, fn.Sel).(*types.Func); ok {
			return o
		}
	}
	return nil
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := calleeObject(info, call).(*types.Func)
	return fn
}

// calleeDisplay renders the callee as written at the call site.
func calleeDisplay(call *ast.CallExpr, fn *types.Func) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel)
	}
	return fn.Name()
}

func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return types.Typ[types.Invalid]
	}
	return sig.Recv().Type()
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

func implementsPtr(t types.Type, iface *types.Interface) bool {
	if _, ok := t.(*types.Pointer); ok {
		return false
	}
	return types.Implements(types.NewPointer(t), iface)
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// netConnInterface digs net.Conn out of the package's import graph.
func netConnInterface(pkg *types.Package) *types.Interface {
	seen := map[*types.Package]bool{}
	var find func(p *types.Package) *types.Package
	find = func(p *types.Package) *types.Package {
		if p == nil || seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == "net" {
			return p
		}
		for _, imp := range p.Imports() {
			if got := find(imp); got != nil {
				return got
			}
		}
		return nil
	}
	netPkg := find(pkg)
	if netPkg == nil {
		return nil
	}
	obj := netPkg.Scope().Lookup("Conn")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// FmtPos renders a position as base file name plus line, compact
// enough to embed in multi-step diagnostics.
func (s *Set) FmtPos(pos token.Pos) string {
	p := s.Fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
