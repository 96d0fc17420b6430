// Package goleak checks that goroutines spawned by the daemons have a
// shutdown path.
//
// Every long-lived goroutine in the system — repair rounds, WAL
// flushers, hint replayers, metric servers — follows the same shape: an
// infinite loop that selects on work and on a stop/done channel (or
// ctx.Done()), returning when asked. A goroutine whose infinite loop
// has no return, no break and no stop-signal reference can never be
// joined: Stop() hangs or leaks the goroutine, and the race detector
// in CI reports spurious ownership changes long after a test finished.
//
// For each `go` statement spawning a function literal (or a function
// declared in the same package), the analyzer looks for unconditional
// `for {}` loops in its body and reports loops containing neither a
// return statement, nor a break, nor any reference to a stop-ish
// signal (stop/done/quit/exit/shut/close/closed/cancel/ctx — which
// covers <-ctx.Done() and <-n.stop selects).
package goleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"efdedup/lint/analysis"
)

// Analyzer is the goleak pass.
var Analyzer = &analysis.Analyzer{
	Name: "goleak",
	Doc:  "reports spawned goroutines whose infinite loops have no return, break, or stop-channel shutdown path",
	Run:  run,
}

var stopish = regexp.MustCompile(`(?i)stop|done|quit|exit|shut|close|cancel|ctx`)

func run(pass *analysis.Pass) error {
	decls := declIndex(pass)
	reported := make(map[token.Pos]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := spawnedBody(pass, g, decls)
			if body == nil {
				return true
			}
			for _, loop := range infiniteLoops(body) {
				if reported[loop.Pos()] || hasShutdownPath(loop) {
					continue
				}
				reported[loop.Pos()] = true
				pass.Reportf(loop.Pos(), "infinite loop in a spawned goroutine has no shutdown path (no return, break, or stop/ctx signal); the goroutine can never be joined")
			}
			return true
		})
	}
	return nil
}

// declIndex maps function objects to their declarations so `go n.loop()`
// can be followed within the package.
func declIndex(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	idx := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					idx[fn] = fd
				}
			}
		}
	}
	return idx
}

// spawnedBody resolves the body of the function a go statement runs:
// a literal, or a same-package declaration.
func spawnedBody(pass *analysis.Pass, g *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) *ast.BlockStmt {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fn, ok := pass.CalleeObject(g.Call).(*types.Func); ok {
		if fd := decls[fn]; fd != nil {
			return fd.Body
		}
	}
	return nil
}

// infiniteLoops finds unconditional for-loops in body, not nested
// inside further function literals.
func infiniteLoops(body *ast.BlockStmt) []*ast.ForStmt {
	var loops []*ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if f, ok := n.(*ast.ForStmt); ok && f.Init == nil && f.Cond == nil && f.Post == nil {
			loops = append(loops, f)
		}
		return true
	})
	return loops
}

// hasShutdownPath reports whether the loop body contains a return, a
// break, or any stop-ish identifier reference.
func hasShutdownPath(loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch node := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if node.Tok == token.BREAK || node.Tok == token.GOTO {
				found = true
			}
		case *ast.Ident:
			if stopish.MatchString(node.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}
