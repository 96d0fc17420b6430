// Package lockedio flags network I/O performed while a sync.Mutex or
// sync.RWMutex is held, directly or through any chain of calls.
//
// The kvstore, cloudstore and agent layers all follow the same
// discipline: take the lock to read or mutate connection tables, RELEASE
// it, then dial or issue the RPC. Holding a mutex across a Dial or a
// conn Read/Write serializes the whole D2-ring fan-out behind one slow
// peer and is how distributed stores deadlock under partitions — the
// chaos tests (internal/netem) stall connections for seconds on
// purpose, so a lock held across I/O turns a single injected stall
// into a node-wide freeze. A blocked remote call inside a helper stalls
// every goroutine contending for the lock just the same, so a call made
// under a lock is reported too when the callee's summary transitively
// reaches I/O, with the call path in the diagnostic.
//
// Both findings come from the interprocedural summaries' positional
// sweep (lint/internal/summary): Lock()/RLock() opens a held region,
// Unlock()/RUnlock() closes it, a deferred unlock keeps it open to the
// end of the function. I/O is recognized by type information: calls
// into package net, methods on net.Conn implementations, Dial/
// DialContext methods on any dialer, Call/Close on the frame transport
// client, and helpers taking a net.Conn argument. Nested function
// literals are swept with their own held region — a goroutine body does
// not inherit the parent's lock, and calls behind a `go` statement do
// not run under it.
package lockedio

import (
	"go/ast"
	"go/types"
	"strings"

	"efdedup/lint/analysis"
)

// Analyzer is the lockedio pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockedio",
	Doc:  "reports network I/O (dials, conn reads/writes, transport RPCs) performed while a sync mutex is held, directly or through a call chain",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	sums := pass.Summaries
	if sums == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			fs := sums.ForFunc(fn)
			if fs == nil {
				continue
			}
			for _, io := range fs.IOUnderLock {
				pass.Reportf(io.Pos, "%s while %s is held (locked at line %d); release the lock before network I/O",
					io.Desc, io.LockExpr, pass.Fset.Position(io.LockPos).Line)
			}
			for _, cul := range fs.CallsUnderLock {
				if cul.CalleeID == "" {
					continue
				}
				if path := sums.ReachesIO(cul.CalleeID); path != nil {
					pass.Reportf(cul.Pos,
						"mutex %s (locked at %s) held across call to %s, which reaches %s via %s",
						cul.LockExpr, sums.FmtPos(cul.LockPos), cul.CalleeName,
						path.Desc, strings.Join(path.Chain, " → "))
				}
			}
		}
	}
	return nil
}
