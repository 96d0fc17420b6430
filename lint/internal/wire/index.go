package wire

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"efdedup/lint/internal/load"
)

// SiteKind distinguishes the two halves of the RPC surface.
type SiteKind int

const (
	// Registration is a Server.Handle(method, handler) reached with a
	// constant method name (directly or through wrappers).
	Registration SiteKind = iota
	// Call is a Client.Call(ctx, method, body) reached with a constant
	// method name.
	Call
)

// Site is one resolved RPC surface point.
type Site struct {
	Kind   SiteKind
	Method string
	// Pos is the outermost constant-method call (the wrapper call in
	// n.handle("kv.batchhas", ...), not the transport primitive inside it).
	Pos token.Pos
	// FuncID is the enclosing function (types.Func.FullName), "" at
	// package scope.
	FuncID string
	// PkgPath is the package containing the site.
	PkgPath string
	// HandlerID names the handler for Registration sites when it is
	// resolvable: the handler function/method itself, or the enclosing
	// function for a func-literal handler (whose calls the literal's
	// body contributes in the call graph). "" when dynamic.
	HandlerID string
}

// Index is the module-wide wire surface: every RPC registration and
// call site plus extracted codec layouts, built once per lint run and
// shared by the lenguard and wirelock analyzers.
type Index struct {
	Sites []Site

	// Encodes and Decodes hold the eagerly-extracted layouts of every
	// codec-named function (encode*/append* and decode*/read*/parse*)
	// that yielded any structure, keyed by FuncID.
	Encodes map[string]*Layout
	Decodes map[string]*Layout

	ex *Extractor
}

// Methods returns every distinct method name appearing at any site,
// sorted.
func (ix *Index) Methods() []string {
	seen := make(map[string]bool)
	for _, s := range ix.Sites {
		seen[s.Method] = true
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Pkgs returns the packages holding a wire entity — an RPC site or a
// codec layout — sorted. The first is the deterministic home for
// module-wide wirelock diagnostics.
func (ix *Index) Pkgs() []string {
	seen := make(map[string]bool)
	for _, s := range ix.Sites {
		seen[s.PkgPath] = true
	}
	for _, m := range []map[string]*Layout{ix.Encodes, ix.Decodes} {
		for _, l := range m {
			seen[l.Pkg] = true
		}
	}
	delete(seen, "")
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// sink is a function known to forward one of its string parameters as
// an RPC method name into the transport layer.
type sink struct {
	kind     SiteKind
	paramIdx int
}

// BuildIndex scans the universe for the RPC surface and codec layouts.
//
// The transport primitives are recognized structurally — a method named
// Handle on a type named Server, and Call on Client, declared in a
// package named transport — so fixtures can stub the real package.
// Wrapper functions that pass their own string parameter through to a
// primitive (kvstore's (*Node).handle, cloudstore's (*Server).handle,
// (*Cluster).call → (*transport.Peers).Call → Client.Call) are
// discovered by fixpoint, and sites are recorded at the outermost call
// carrying a constant method name.
func BuildIndex(fset *token.FileSet, pkgs []*load.Package) *Index {
	ix := &Index{
		Encodes: make(map[string]*Layout),
		Decodes: make(map[string]*Layout),
		ex:      NewExtractor(pkgs),
	}

	// Fixpoint: grow the sink set until no new wrappers appear.
	sinks := make(map[string]map[SiteKind]sink)
	addSink := func(fid string, s sink) bool {
		if sinks[fid] == nil {
			sinks[fid] = make(map[SiteKind]sink)
		}
		if _, ok := sinks[fid][s.kind]; ok {
			return false
		}
		sinks[fid][s.kind] = s
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, src := range ix.ex.funcs {
			params := stringParams(src.pkg.Info, src.decl)
			if len(params) == 0 {
				continue
			}
			fid := src.fn.FullName()
			ast.Inspect(src.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				kind, argIdx, ok := sinkCall(src.pkg.Info, call, sinks)
				if !ok || argIdx >= len(call.Args) {
					return true
				}
				obj := identObj(src.pkg.Info, call.Args[argIdx])
				if obj == nil {
					return true
				}
				if pi, isParam := params[obj]; isParam {
					if addSink(fid, sink{kind: kind, paramIdx: pi}) {
						changed = true
					}
				}
				return true
			})
		}
	}

	// Site sweep: record every sink call carrying a constant method.
	// A call inside a wrapper that merely forwards its parameter is not
	// a site; the wrapper's own callers are.
	for _, src := range ix.ex.funcs {
		info := src.pkg.Info
		fid := src.fn.FullName()
		ast.Inspect(src.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, argIdx, ok := sinkCall(info, call, sinks)
			if !ok || argIdx >= len(call.Args) {
				return true
			}
			method, isConst := stringConst(info, call.Args[argIdx])
			if !isConst {
				return true
			}
			site := Site{
				Kind:    kind,
				Method:  method,
				Pos:     call.Pos(),
				FuncID:  fid,
				PkgPath: src.pkg.PkgPath,
			}
			if kind == Registration {
				site.HandlerID = handlerID(info, call, fid)
			}
			ix.Sites = append(ix.Sites, site)
			return true
		})
	}
	sort.Slice(ix.Sites, func(i, j int) bool {
		a, b := ix.Sites[i], ix.Sites[j]
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Pos < b.Pos
	})

	// Codec sweep: extract every codec-named function eagerly so the
	// lockfile covers the full surface even when nothing calls it.
	for fid, src := range ix.ex.funcs {
		name := strings.ToLower(src.fn.Name())
		if hasAnyPrefix(name, "encode", "append", "marshal") {
			if l := ix.ex.Layout(fid, Encode); l != nil && len(l.Fields) > 0 {
				ix.Encodes[fid] = l
			}
		}
		if hasAnyPrefix(name, "decode", "read", "parse", "unmarshal") {
			if l := ix.ex.Layout(fid, Decode); l != nil && len(l.Fields) > 0 {
				ix.Decodes[fid] = l
			}
		}
	}
	return ix
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// stringParams maps each string-typed parameter object of fd to its
// index in the flattened parameter list.
func stringParams(info *types.Info, fd *ast.FuncDecl) map[types.Object]int {
	out := make(map[types.Object]int)
	if fd.Type.Params == nil {
		return out
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			idx++
			continue
		}
		for _, name := range names {
			obj := info.Defs[name]
			if obj != nil && isString(obj.Type()) {
				out[obj] = idx
			}
			idx++
		}
	}
	return out
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// sinkCall classifies a call as an RPC sink — a transport primitive or
// a discovered wrapper — returning which argument carries the method
// name.
func sinkCall(info *types.Info, call *ast.CallExpr, sinks map[string]map[SiteKind]sink) (SiteKind, int, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return 0, 0, false
	}
	if kind, idx, ok := transportPrimitive(fn); ok {
		return kind, idx, true
	}
	for kind, s := range sinks[fn.FullName()] {
		return kind, s.paramIdx, true
	}
	return 0, 0, false
}

// transportPrimitive recognizes the base Server.Handle / Client.Call
// methods structurally, so test fixtures can declare their own
// transport package.
func transportPrimitive(fn *types.Func) (SiteKind, int, bool) {
	if fn.Pkg() == nil || fn.Pkg().Name() != "transport" {
		return 0, 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0, 0, false
	}
	recv := sig.Recv().Type()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return 0, 0, false
	}
	var kind SiteKind
	switch {
	case fn.Name() == "Handle" && named.Obj().Name() == "Server":
		kind = Registration
	case fn.Name() == "Call" && named.Obj().Name() == "Client":
		kind = Call
	default:
		return 0, 0, false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isString(sig.Params().At(i).Type()) {
			return kind, i, true
		}
	}
	return 0, 0, false
}

// stringConst evaluates a constant string expression.
func stringConst(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// handlerID resolves the handler argument of a registration call: the
// argument after the method name that names a function or method, or
// the enclosing function for a literal.
func handlerID(info *types.Info, call *ast.CallExpr, enclosing string) string {
	for _, arg := range call.Args {
		switch a := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			return enclosing
		case *ast.Ident, *ast.SelectorExpr:
			obj := identObj(info, arg)
			if obj == nil {
				if sel, ok := a.(*ast.SelectorExpr); ok {
					if s, found := info.Selections[sel]; found {
						obj = s.Obj()
					} else {
						obj = info.Uses[sel.Sel]
					}
				}
			}
			if fn, ok := obj.(*types.Func); ok {
				return fn.FullName()
			}
		}
	}
	return ""
}
