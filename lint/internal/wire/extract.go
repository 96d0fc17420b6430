package wire

import (
	"go/ast"
	"go/types"

	"efdedup/lint/internal/load"
)

// Extractor reads codec functions into layouts, with memoization so a
// codec that calls another (encodeEntry from appendScan, readEntry from
// decodeScan) is read once.
type Extractor struct {
	funcs   map[string]*funcSrc
	layouts map[extractKey]*Layout
	inwork  map[extractKey]bool
}

type funcSrc struct {
	decl *ast.FuncDecl
	pkg  *load.Package
	fn   *types.Func
}

type extractKey struct {
	fid string
	dir Dir
}

// NewExtractor indexes every declared function in pkgs.
func NewExtractor(pkgs []*load.Package) *Extractor {
	ex := &Extractor{
		funcs:   make(map[string]*funcSrc),
		layouts: make(map[extractKey]*Layout),
		inwork:  make(map[extractKey]bool),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					if _, dup := ex.funcs[obj.FullName()]; !dup {
						ex.funcs[obj.FullName()] = &funcSrc{decl: fd, pkg: pkg, fn: obj}
					}
				}
			}
		}
	}
	return ex
}

// Layout returns the (memoized) layout of the function with the given
// FuncID in the given direction, or nil when the function is unknown or
// is not a codec in that direction: an encoder returns a []byte and a
// decoder reads a []byte or *codec.Reader parameter through a
// codec.Reader.
func (ex *Extractor) Layout(fid string, dir Dir) *Layout {
	key := extractKey{fid, dir}
	if l, ok := ex.layouts[key]; ok {
		return l
	}
	src, ok := ex.funcs[fid]
	if !ok || ex.inwork[key] {
		return nil
	}
	ex.inwork[key] = true
	l := ex.extract(src, dir)
	delete(ex.inwork, key)
	ex.layouts[key] = l
	return l
}

func (ex *Extractor) extract(src *funcSrc, dir Dir) *Layout {
	sig := src.fn.Type().(*types.Signature)
	w := &walker{ex: ex, info: src.pkg.Info, dir: dir}
	switch {
	case dir == Encode && (sig.Results().Len() == 0 || !IsByteSlice(sig.Results().At(0).Type())):
		return nil
	case dir == Decode:
		params := sig.Params()
		input := false
		for i := 0; i < params.Len(); i++ {
			t := params.At(i).Type()
			_, ptr := t.(*types.Pointer)
			w.rest = w.rest || ptr && isReader(t) // the caller reads on after this helper
			input = input || w.rest || IsByteSlice(t)
		}
		if !input {
			return nil
		}
	}
	w.stmts(src.decl.Body.List)
	if dir == Decode && len(w.fields) == 0 && !w.rest {
		return nil
	}
	return &Layout{FuncID: src.fn.FullName(), Pkg: src.pkg.PkgPath, Dir: dir, Fields: w.fields, Rest: w.rest}
}

// walker collects one function's codec calls in evaluation order.
type walker struct {
	ex     *Extractor
	info   *types.Info
	dir    Dir
	fields []Field
	rest   bool
	// count marks the last field as a u32 that counts the loop right
	// after it: a Reader.Count, or an encoder's U32.
	count bool
}

func (w *walker) emit(fs ...Field) {
	w.fields = append(w.fields, fs...)
	w.count = false
}

// sub walks s in a fresh walker and returns its fields, and whether it
// leaves the rest of the body to the caller.
func (w *walker) sub(s ast.Stmt) ([]Field, bool) {
	v := &walker{ex: w.ex, info: w.info, dir: w.dir}
	v.stmt(s)
	return v.fields, v.rest
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.CaseClause:
		w.stmts(s.Body)
	case *ast.CommClause:
		w.stmts(s.Body)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.loop(s.Body)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.loop(s.Body)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.branches(s.Body, s.Else)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.branches(s.Body)
	case *ast.TypeSwitchStmt:
		w.branches(s.Body)
	case *ast.SelectStmt:
		w.branches(s.Body)
	case nil:
	default:
		w.expr(s)
	}
}

// loop reads a loop body: a count right before it makes it a list32,
// anything else a repeat. A loop without codec calls is not a field.
func (w *walker) loop(body *ast.BlockStmt) {
	elem, rest := w.sub(body)
	w.rest = w.rest || rest
	if len(elem) == 0 {
		return
	}
	f := Field{Kind: KList, Elem: elem}
	if w.count {
		w.fields = w.fields[:len(w.fields)-1]
		f.Prefix = KU32
	}
	w.emit(f)
}

// branches makes code that runs conditionally one opaque field, if it
// reads or writes the body at all.
func (w *walker) branches(stmts ...ast.Stmt) {
	for _, s := range stmts {
		if fields, rest := w.sub(s); len(fields) > 0 || rest {
			w.emit(Field{Kind: KOpaque})
			return
		}
	}
}

// expr visits the calls in n, each after its arguments.
func (w *walker) expr(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later, if at all
		case *ast.CallExpr:
			if w.restSplice(n) {
				return false
			}
			w.expr(n.Fun)
			for _, a := range n.Args {
				w.expr(a)
			}
			w.call(n)
			return false
		}
		return true
	})
}

// restSplice reads decodeX(r.Rest()) — a decoder handed the rest of the
// body — as decodeX's fields.
func (w *walker) restSplice(call *ast.CallExpr) bool {
	if w.dir != Decode || len(call.Args) != 1 {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !ok || readerMethod(w.info, arg) != "Rest" {
		return false
	}
	fn := calleeFunc(w.info, call)
	if fn == nil {
		return false
	}
	l := w.ex.Layout(fn.FullName(), Decode)
	if l == nil {
		return false
	}
	w.emit(l.Fields...)
	return true
}

// call adds what one call contributes to the layout.
func (w *walker) call(call *ast.CallExpr) {
	if w.dir == Decode {
		w.decodeCall(call)
		return
	}
	if isBuiltin(w.info, call, "append") {
		switch {
		case !call.Ellipsis.IsValid():
			w.emit(Field{Kind: KOpaque}) // raw bytes: not a codec field
		case w.encoderLayout(call.Args[len(call.Args)-1]) == nil:
			w.emit(Field{Kind: KTail})
		}
		return
	}
	if fn := calleeFunc(w.info, call); fn != nil && isCodecPkg(fn.Pkg()) {
		if f, ok := codecFields[fn.Name()]; ok {
			w.emit(f)
			w.count = f.Kind == KU32
		}
	} else if l := w.encoderLayout(call); l != nil && len(l.Fields) > 0 {
		w.emit(l.Fields...)
	} else if l != nil {
		w.emit(Field{Kind: KOpaque}) // builds bytes some other way
	}
}

// encoderLayout returns the layout of the module function returning a
// []byte that e calls, if it calls one.
func (w *walker) encoderLayout(e ast.Expr) *Layout {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if fn := calleeFunc(w.info, call); fn != nil {
		return w.ex.Layout(fn.FullName(), Encode)
	}
	return nil
}

func (w *walker) decodeCall(call *ast.CallExpr) {
	switch m := readerMethod(w.info, call); m {
	case "":
	case "Rest":
		w.rest = true
		return
	case "Count":
		w.emit(Field{Kind: KU32})
		w.count = true
		return
	default:
		if f, ok := codecFields[m]; ok {
			w.emit(f)
		}
		return
	}
	// A helper handed the reader reads on from where this function is.
	fn := calleeFunc(w.info, call)
	if fn == nil {
		return
	}
	for _, a := range call.Args {
		if _, ptr := w.info.TypeOf(a).(*types.Pointer); ptr && isReader(w.info.TypeOf(a)) {
			if l := w.ex.Layout(fn.FullName(), Decode); l != nil {
				w.emit(l.Fields...)
			}
			return
		}
	}
}

// codecFields maps codec appenders and Reader methods to their fields.
var codecFields = map[string]Field{
	"U8": {Kind: KU8}, "U16": {Kind: KU16}, "U32": {Kind: KU32}, "U64": {Kind: KU64},
	"ID":      {Kind: KArray, Size: 32},
	"Bytes8":  {Kind: KBytes, Prefix: KU8},
	"Bytes16": {Kind: KBytes, Prefix: KU16},
	"Bytes32": {Kind: KBytes, Prefix: KU32},
}

// isCodecPkg recognizes the codec package by name, so fixtures can stub
// it.
func isCodecPkg(p *types.Package) bool { return p != nil && p.Name() == "codec" }

// isReader reports whether t is codec.Reader or a pointer to one.
func isReader(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Reader" && isCodecPkg(named.Obj().Pkg())
}

// readerMethod returns the name of the codec.Reader method call calls,
// or "".
func readerMethod(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isReader(recv.Type()) {
			return fn.Name()
		}
	}
	return ""
}

// ---------------------------------------------------------------------
// Shared expression helpers
// ---------------------------------------------------------------------

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // an explicit instantiation
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// IsByteSlice reports whether t is a []byte.
func IsByteSlice(t types.Type) bool { return types.Identical(t.Underlying(), byteSlice) }

var byteSlice = types.NewSlice(types.Typ[types.Byte])

func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}
