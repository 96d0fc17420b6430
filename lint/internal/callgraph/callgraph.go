// Package callgraph builds a module-wide static call graph over the
// packages a lint run loaded. It is the substrate of the
// interprocedural analyzers (lockorder, lockedio, errlost, hotalloc):
// purely intra-procedural sweeps cannot see a deadlock whose two lock
// acquisitions live in different functions, or a per-chunk allocation
// three calls below the pipeline root.
//
// Resolution strategy, in decreasing precision:
//
//   - Static calls (package functions, concrete methods) resolve to
//     their one callee.
//   - Interface method calls resolve through a conservative fallback:
//     every named type in the loaded universe whose method set
//     implements the interface contributes its concrete method as a
//     possible callee. A call through an interface nobody in the
//     universe implements contributes no edges (the callee is outside
//     the analyzed world; analyzers treat it as unknown).
//   - Function values referenced without being called (`Split(r,
//     p.add)`) produce Ref edges: the receiver may invoke them, so
//     reachability analyses that care about "may eventually run on
//     this path" (hotalloc) follow them, while happens-while-holding
//     analyses (lockedio, lockorder) do not.
//
// Calls anywhere under a `go` statement — including inside the spawned
// function literal's body — are marked Async: they do not block the
// caller, so a lock the caller holds is not held across them. Function
// literal bodies outside `go` statements are attributed to the
// enclosing declaration (a closure handed to a retrier or sort.Slice
// runs synchronously in the common case; this is the conservative
// choice for reachability).
//
// Nodes are keyed by types.Func full names rather than object identity
// because the same function is represented by different *types.Func
// objects depending on whether its package was type-checked from
// source or imported from export data.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"efdedup/lint/internal/load"
)

// Graph is a module-wide call graph.
type Graph struct {
	// Nodes maps function IDs (see FuncID) to nodes. Only functions
	// whose source was loaded have nodes; calls into export-data-only
	// packages (stdlib, dependencies) contribute no edges.
	Nodes map[string]*Node
}

// Node is one function or method with source.
type Node struct {
	// ID is the stable cross-package key (FuncID of Func).
	ID string
	// Func is the declared function object (from its defining
	// package's own type-check).
	Func *types.Func
	// Decl is the declaration; Body may be nil for bodyless decls.
	Decl *ast.FuncDecl
	// Pkg is the package the function was loaded from.
	Pkg *load.Package
	// Out and In are the outgoing and incoming edges.
	Out []*Edge
	In  []*Edge
}

// Edge is one possible caller→callee relationship.
type Edge struct {
	Caller *Node
	Callee *Node
	// Pos is the call (or reference) position in the caller.
	Pos token.Pos
	// Async marks calls under a `go` statement: they do not run on the
	// caller's stack, so the caller's locks are not held across them.
	Async bool
	// Ref marks a function value reference rather than a call: the
	// function escapes to whoever receives the value and may run later.
	Ref bool
	// Interface holds the interface method name ("Chunker.Split") when
	// the edge came from the conservative interface-call fallback.
	Interface string
}

// FuncID returns the stable identity of fn across source- and
// export-data-backed type checks, e.g.
// "(*efdedup/internal/kvstore.Cluster).BatchHas" or
// "efdedup/internal/chunk.Sum".
func FuncID(fn *types.Func) string { return fn.FullName() }

// Build constructs the graph over every function declared in pkgs.
func Build(fset *token.FileSet, pkgs []*load.Package) *Graph {
	g := &Graph{Nodes: make(map[string]*Node)}

	// Pass 1: one node per declared function.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				id := FuncID(obj)
				if _, dup := g.Nodes[id]; dup {
					continue // e.g. identical decl re-listed; keep the first
				}
				g.Nodes[id] = &Node{ID: id, Func: obj, Decl: fd, Pkg: pkg}
			}
		}
	}

	impls := newImplIndex(pkgs)

	// Pass 2: edges.
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
				caller := g.Nodes[FuncID(obj)]
				if caller == nil {
					continue
				}
				b := &edgeBuilder{g: g, pkg: pkg, caller: caller, impls: impls}
				b.walk(fd.Body, false)
			}
		}
	}

	// Deterministic edge order (builders walk files in listed order, but
	// sorting hardens every downstream traversal).
	for _, n := range g.Nodes {
		sort.SliceStable(n.Out, func(i, j int) bool { return n.Out[i].Pos < n.Out[j].Pos })
	}
	return g
}

// Node returns the node for fn, or nil when fn has no loaded source.
func (g *Graph) Node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.Nodes[FuncID(fn)]
}

// SortedNodes returns every node ordered by ID, for deterministic
// module-wide sweeps.
func (g *Graph) SortedNodes() []*Node {
	out := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// edgeBuilder accumulates one caller's outgoing edges.
type edgeBuilder struct {
	g      *Graph
	pkg    *load.Package
	caller *Node
	impls  *implIndex
}

func (b *edgeBuilder) walk(n ast.Node, async bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch node := m.(type) {
		case *ast.GoStmt:
			// Everything below the go statement is detached from the
			// caller's stack. (Argument expressions do evaluate
			// synchronously; treating them as async only loses edges for
			// happens-while-holding analyses, which is the safe
			// direction for a linter.)
			b.walk(node.Call, true)
			return false
		case *ast.CallExpr:
			b.call(node, async)
			// Recurse manually so the Fun identifier is not re-visited
			// as a value reference.
			b.walkCallChildren(node, async)
			return false
		case *ast.Ident:
			b.ref(node, node, async)
			return false
		case *ast.SelectorExpr:
			b.ref(node, node.Sel, async)
			// The receiver expression may itself contain calls.
			b.walk(node.X, async)
			return false
		}
		return true
	})
}

// walkCallChildren walks a call's operand subtrees, skipping the part
// of Fun that names the callee (already handled as a call).
func (b *edgeBuilder) walkCallChildren(call *ast.CallExpr, async bool) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		// Nothing below.
	case *ast.SelectorExpr:
		b.walk(fn.X, async)
	default:
		// FuncLit called immediately, call returning a function, ...
		b.walk(fn, async)
	}
	for _, arg := range call.Args {
		b.walk(arg, async)
	}
}

// call resolves one call expression to zero or more callees.
func (b *edgeBuilder) call(call *ast.CallExpr, async bool) {
	info := b.pkg.Info
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := objectOf(info, fn).(*types.Func); ok {
			b.addEdge(obj, call.Pos(), async, false, "")
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			callee, _ := sel.Obj().(*types.Func)
			if callee == nil {
				return // field of function type: unresolvable statically
			}
			if recvIsInterface(callee) {
				b.interfaceCall(sel.Recv(), callee, call.Pos(), async)
				return
			}
			b.addEdge(callee, call.Pos(), async, false, "")
			return
		}
		// Package-qualified call (pkg.Func).
		if obj, ok := objectOf(info, fn.Sel).(*types.Func); ok {
			b.addEdge(obj, call.Pos(), async, false, "")
		}
	}
}

// ref records a function value used outside call position.
func (b *edgeBuilder) ref(expr ast.Expr, id *ast.Ident, async bool) {
	fn, ok := objectOf(b.pkg.Info, id).(*types.Func)
	if !ok {
		return
	}
	if recvIsInterface(fn) {
		// Method value through an interface: fall back like a call.
		if sel, isSel := expr.(*ast.SelectorExpr); isSel {
			if s, okSel := b.pkg.Info.Selections[sel]; okSel {
				b.interfaceRef(s.Recv(), fn, expr.Pos(), async)
			}
		}
		return
	}
	b.addEdge(fn, expr.Pos(), async, true, "")
}

// interfaceCall adds fallback edges for a call through an interface.
func (b *edgeBuilder) interfaceCall(recv types.Type, method *types.Func, pos token.Pos, async bool) {
	label := interfaceLabel(recv, method)
	for _, impl := range b.impls.resolve(recv, method.Name()) {
		b.addEdge(impl, pos, async, false, label)
	}
}

// interfaceRef is the Ref-edge variant of interfaceCall.
func (b *edgeBuilder) interfaceRef(recv types.Type, method *types.Func, pos token.Pos, async bool) {
	label := interfaceLabel(recv, method)
	for _, impl := range b.impls.resolve(recv, method.Name()) {
		b.addEdge(impl, pos, async, true, label)
	}
}

func interfaceLabel(recv types.Type, method *types.Func) string {
	name := "interface"
	if named, ok := deref(recv).(*types.Named); ok {
		name = named.Obj().Name()
	}
	return name + "." + method.Name()
}

// addEdge links caller→callee when the callee has loaded source.
func (b *edgeBuilder) addEdge(callee *types.Func, pos token.Pos, async, ref bool, iface string) {
	target := b.g.Node(callee)
	if target == nil {
		return
	}
	e := &Edge{Caller: b.caller, Callee: target, Pos: pos, Async: async, Ref: ref, Interface: iface}
	b.caller.Out = append(b.caller.Out, e)
	target.In = append(target.In, e)
}

// implIndex resolves interface calls to concrete methods declared in
// the universe.
type implIndex struct {
	// named lists every named (non-interface) type with methods.
	named []*types.Named
}

func newImplIndex(pkgs []*load.Package) *implIndex {
	idx := &implIndex{}
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			// NumMethods counts declared methods only; a type whose
			// whole method set is promoted from embedded fields still
			// implements interfaces, so index by the method set.
			if types.NewMethodSet(types.NewPointer(named)).Len() == 0 {
				continue
			}
			key := tn.Pkg().Path() + "." + tn.Name()
			if seen[key] {
				continue
			}
			seen[key] = true
			idx.named = append(idx.named, named)
		}
	}
	sort.Slice(idx.named, func(i, j int) bool {
		a, b := idx.named[i].Obj(), idx.named[j].Obj()
		return a.Pkg().Path()+"."+a.Name() < b.Pkg().Path()+"."+b.Name()
	})
	return idx
}

// resolve returns the concrete methods named method on every universe
// type implementing the interface type recv.
func (idx *implIndex) resolve(recv types.Type, method string) []*types.Func {
	iface, ok := deref(recv).Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, named := range idx.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method)
		if fn, okFn := obj.(*types.Func); okFn {
			out = append(out, fn)
		}
	}
	return out
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

func recvIsInterface(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
