// Package callgraph builds a module-wide static call graph over the
// packages a lint run loaded. It is the substrate of the
// interprocedural lock analyzers (lockorder, lockedio): a purely
// intra-procedural sweep cannot see a deadlock whose two lock
// acquisitions live in different functions, or a dial two helpers below
// a held mutex.
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
//
// Only calls that run on the caller's stack are edges: nothing under a
// `go` statement (a lock the caller holds is not held across a spawned
// goroutine), and no function value referenced without being called.
// Function literal bodies outside `go` statements are attributed to the
// enclosing declaration (a closure handed to a retrier or sort.Slice
// runs synchronously in the common case).
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
	// Out are the outgoing edges.
	Out []*Edge
}

// Edge is one possible caller→callee relationship.
type Edge struct {
	Callee *Node
	// Pos is the call position in the caller.
	Pos token.Pos
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
				b.walk(fd.Body)
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

func (b *edgeBuilder) walk(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch node := m.(type) {
		case *ast.GoStmt:
			// Everything below the go statement is detached from the
			// caller's stack. (Argument expressions do evaluate
			// synchronously; dropping them only loses edges for
			// happens-while-holding analyses, which is the safe
			// direction for a linter.)
			return false
		case *ast.CallExpr:
			b.call(node)
		}
		return true
	})
}

// call resolves one call expression to zero or more callees.
func (b *edgeBuilder) call(call *ast.CallExpr) {
	info := b.pkg.Info
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := objectOf(info, fn).(*types.Func); ok {
			b.addEdge(obj, call.Pos())
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			callee, _ := sel.Obj().(*types.Func)
			if callee == nil {
				return // field of function type: unresolvable statically
			}
			if recvIsInterface(callee) {
				for _, impl := range b.impls.resolve(sel.Recv(), callee.Name()) {
					b.addEdge(impl, call.Pos())
				}
				return
			}
			b.addEdge(callee, call.Pos())
			return
		}
		// Package-qualified call (pkg.Func).
		if obj, ok := objectOf(info, fn.Sel).(*types.Func); ok {
			b.addEdge(obj, call.Pos())
		}
	}
}

// addEdge links caller→callee when the callee has loaded source.
func (b *edgeBuilder) addEdge(callee *types.Func, pos token.Pos) {
	if target := b.g.Node(callee); target != nil {
		b.caller.Out = append(b.caller.Out, &Edge{Callee: target, Pos: pos})
	}
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
