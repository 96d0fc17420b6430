// Package errclass enforces the error-classification invariant at
// transport boundaries.
//
// The retry/breaker layer (internal/retrypolicy) decides whether to
// re-dial, back off or trip a breaker by classifying errors with
// errors.Is: ErrNoQuorum means try another replica, a protocol error
// means the peer is speaking garbage and retrying is harmful, a config
// error means the caller is wrong. That only works if every error
// born in a transport-facing package is classifiable — i.e. wraps a
// package-level sentinel or an underlying cause with %w. A bare
// fmt.Errorf("...") or an errors.New inside a function produces an
// anonymous error that defeats errors.Is everywhere downstream.
//
// In the packages listed in TransportPackages the analyzer reports:
//
//   - fmt.Errorf calls whose format string lacks %w (or is not a
//     compile-time constant — dynamic formats cannot be audited);
//   - errors.New calls inside function bodies (package-level sentinel
//     declarations are exactly the right use and stay allowed).
package errclass

import (
	"go/ast"
	"go/constant"
	"strings"

	"efdedup/lint/analysis"
)

// TransportPackages are the import-path suffixes whose errors cross a
// transport boundary and must stay classifiable.
var TransportPackages = []string{
	"internal/kvstore",
	"internal/cloudstore",
	"internal/agent",
	"internal/transport",
}

// Analyzer is the errclass pass.
var Analyzer = &analysis.Analyzer{
	Name: "errclass",
	Doc:  "reports unclassifiable errors (fmt.Errorf without %w, in-function errors.New) in transport-boundary packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !transportBoundary(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				check(pass, call)
				return true
			})
		}
	}
	return nil
}

func check(pass *analysis.Pass, call *ast.CallExpr) {
	switch {
	case pass.IsPkgFunc(call, "errors", "New"):
		pass.Reportf(call.Pos(),
			"errors.New inside a function at a transport boundary; declare a package-level sentinel and wrap it with fmt.Errorf(\"...: %%w\", Err...)")
	case pass.IsPkgFunc(call, "fmt", "Errorf") && len(call.Args) > 0:
		tv, ok := pass.TypesInfo.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			pass.Reportf(call.Pos(),
				"fmt.Errorf with a non-constant format string at a transport boundary; errors must be auditable and classifiable")
			return
		}
		if !strings.Contains(constant.StringVal(tv.Value), "%w") {
			pass.Reportf(call.Pos(),
				"fmt.Errorf without %%w at a transport boundary; wrap a package sentinel or the underlying error so errors.Is/retrypolicy can classify it")
		}
	}
}

func transportBoundary(path string) bool {
	for _, suffix := range TransportPackages {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}
