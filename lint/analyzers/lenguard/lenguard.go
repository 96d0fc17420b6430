// Package lenguard confines byte-format reads to internal/codec. A
// hostile body must surface as the package's protocol error, never as an
// index-out-of-range panic or a length check that wraps in 32 bits, and
// internal/codec's Reader is the one place that checks lengths. So in
// every package that owns a wire layout — one with an RPC registration
// or call site, or a codec the wire index reads — non-test code may not:
//
//   - import encoding/binary: fixed-width fields go through codec's
//     appenders and Reader; or
//   - index or slice a request body: the []byte parameter of a
//     registered handler or of a decode*/read*/handle* function is read
//     through a codec.Reader only.
//
// Byte formats outside those packages (reclog's frame, hashing) are not
// request bodies.
package lenguard

import (
	"go/ast"
	"go/types"
	"slices"
	"strconv"
	"strings"

	"efdedup/lint/analysis"
	"efdedup/lint/internal/wire"
)

// Analyzer confines body reads to the codec package.
var Analyzer = &analysis.Analyzer{
	Name: "lenguard",
	Doc:  "packages with wire layouts read bodies through internal/codec only: no encoding/binary, no slicing a request body",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	ix := pass.Wire
	if ix == nil || !slices.Contains(ix.Pkgs(), pass.Pkg.Path()) {
		return nil
	}
	handlers := make(map[string]bool)
	for _, s := range ix.Sites {
		if s.Kind == wire.Registration {
			handlers[s.HandlerID] = true
		}
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/binary" {
				pass.Reportf(imp.Pos(), "%s owns a wire layout: read and write fields with internal/codec, not encoding/binary", pass.Pkg.Name())
			}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil || !(handlers[fn.FullName()] || bodyReader(fd.Name.Name)) {
				continue
			}
			checkBodies(pass, fd)
		}
	}
	return nil
}

func bodyReader(name string) bool {
	name = strings.ToLower(name)
	return strings.HasPrefix(name, "decode") || strings.HasPrefix(name, "read") || strings.HasPrefix(name, "handle")
}

// checkBodies flags every index or slice of fd's []byte parameters.
func checkBodies(pass *analysis.Pass, fd *ast.FuncDecl) {
	params := make(map[types.Object]bool)
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil && wire.IsByteSlice(obj.Type()) {
				params[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var x ast.Expr
		switch n := n.(type) {
		case *ast.IndexExpr:
			x = n.X
		case *ast.SliceExpr:
			x = n.X
		default:
			return true
		}
		if id, ok := ast.Unparen(x).(*ast.Ident); ok && params[pass.TypesInfo.Uses[id]] {
			pass.Reportf(n.Pos(), "%s slices its body %s by hand: read it through a codec.Reader, which checks every length", fd.Name.Name, id.Name)
		}
		return true
	})
}
