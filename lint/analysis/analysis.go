// Package analysis is a dependency-free miniature of
// golang.org/x/tools/go/analysis: just enough surface (Analyzer, Pass,
// Diagnostic) to write type-aware checkers for this repository without
// pulling x/tools into the build. The container this repo grows in has
// no module proxy access, so the linter suite is built on the standard
// library's go/ast, go/types and go/importer instead.
//
// The API deliberately mirrors the upstream names; if x/tools ever
// becomes available the analyzers port over by changing one import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"efdedup/lint/internal/summary"
	"efdedup/lint/internal/wire"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass is the unit of work handed to an Analyzer: one type-checked
// package plus a sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Summaries is the module-wide interprocedural fact store: call
	// graph plus per-function summaries over every loaded package (the
	// whole universe, not just this pass's package). Built once per
	// lint run by the driver; nil only if the driver opts out.
	Summaries *summary.Set

	// Wire is the module-wide RPC surface and codec layouts
	// (registrations, call sites, extracted field layouts) built once
	// per lint run over the universe. The wire-protocol analyzers
	// (lenguard, wirelock) consume it; nil only if the driver opts out.
	Wire *wire.Index

	// Report delivers one diagnostic. Filled in by the driver.
	Report func(Diagnostic)
}

// InFiles reports whether pos falls inside one of this pass's files —
// interprocedural analyzers use it to claim a module-wide finding for
// exactly one package, so a cycle spanning packages is reported once.
func (p *Pass) InFiles(pos token.Pos) bool {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return true
		}
	}
	return false
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// ObjectOf resolves the object denoted by an identifier, consulting
// both Uses and Defs.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return p.TypesInfo.Defs[id]
}

// CalleeObject resolves the called function or method of a call
// expression, or nil if the callee is not a named function (e.g. a
// call of a function-typed variable or a type conversion).
func (p *Pass) CalleeObject(call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o, ok := p.ObjectOf(fn).(*types.Func); ok {
			return o
		}
		// Type conversions resolve to *types.TypeName; builtins to
		// *types.Builtin. Neither is a callee we analyze.
		return nil
	case *ast.SelectorExpr:
		if sel, ok := p.TypesInfo.Selections[fn]; ok {
			return sel.Obj()
		}
		// Package-qualified call: fmt.Errorf, rand.Intn, ...
		if o, ok := p.ObjectOf(fn.Sel).(*types.Func); ok {
			return o
		}
	}
	return nil
}

// IsPkgFunc reports whether call invokes the package-scope function
// pkgPath.name (not a method).
func (p *Pass) IsPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	obj := p.CalleeObject(call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// ImportedPackage walks the import graph from pkg and returns the
// loaded *types.Package with the given path, or nil.
func ImportedPackage(pkg *types.Package, path string) *types.Package {
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package) *types.Package
	walk = func(p *types.Package) *types.Package {
		if p == nil || seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == path {
			return p
		}
		for _, imp := range p.Imports() {
			if got := walk(imp); got != nil {
				return got
			}
		}
		return nil
	}
	if pkg.Path() == path {
		return pkg
	}
	return walk(pkg)
}
