// Package durafirst enforces durable-write-before-memory-mutation in
// kvstore/cloudstore handler methods — a bug class this code base has
// shipped and then fixed by hand twice (a kvstore put handler, since
// deleted, applying to the table before the WAL append landed; the cloud's
// manifest handler registering the manifest before its durable write). The
// invariant comes straight from the paper's collaborative index: once a
// handler acks success, a crash must not forget state the ack promised,
// and the index must never reference chunks the durable store lacks. So
// on every path that acks success, the mutex-guarded mutation of
// receiver state must be dominated by the durable call.
//
// The check is a forward may-analysis of a three-state machine per
// path over the function CFG:
//
//	clean   --durable-->  durable      (WAL/disk write landed)
//	clean   --mutation->  dirty        (memory changed first: the bug)
//	durable --mutation->  durable      (correct order)
//
// A success-acking return (its final result is a literal nil error)
// reached while some path is dirty reports at the offending mutation.
// Durable calls are wal.Append (or its batch form appendFrames) /
// containerLog.sync / reclog.WriteFileAtomic, directly or one call level
// down: pass.Summaries resolves the callee body, so `n.applyPut(...)`
// style helpers contribute their mutations and `n.persist(...)` style
// helpers their durable write at the call site. A helper that writes
// durably and then mutates, like `containerStore.put` (append the tail
// and the manifest, sync, then index and catalog), orders its own state
// and contributes nothing: it vouches for no later mutation, so anything
// a handler records after it needs a durable write of its own.
// Mutations are writes to receiver-rooted fields, map entries and slices
// inside a mutex-held region — unlocked writes are a different
// analyzer's problem.
//
// Edge refinement keeps the in-memory-only configuration clean: on
// the arm where the durability facility is known nil (`n.wal == nil`)
// there is nothing to order against, and the path is exempt (the state
// machine jumps straight to durable).
package durafirst

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"efdedup/lint/analysis"
	"efdedup/lint/internal/cfg"
	"efdedup/lint/internal/dataflow"
)

// Analyzer is the durafirst pass.
var Analyzer = &analysis.Analyzer{
	Name: "durafirst",
	Doc:  "in kvstore/cloudstore handlers, mutex-guarded receiver mutations must be preceded by the durable call (wal.Append/containerLog.sync/reclog.WriteFileAtomic) on every success-acking path",
	Run:  run,
}

const (
	cleanBit   = 1 << iota // no mutation, no durable write yet
	durableBit             // durable write landed (or facility exempt)
	dirtyBit               // memory mutated before any durable write
)

// state is the may-set of per-path machine states plus the first
// mutation that dirtied some path.
type state struct {
	mask     uint8
	dirtyPos token.Pos
}

func bottom() state { return state{} }

func join(a, b state) state {
	out := state{mask: a.mask | b.mask, dirtyPos: a.dirtyPos}
	if out.dirtyPos == token.NoPos || (b.dirtyPos != token.NoPos && b.dirtyPos < out.dirtyPos) {
		out.dirtyPos = b.dirtyPos
	}
	return out
}

func equal(a, b state) bool { return a == b }

// event is one durability-relevant step, in source order.
type event struct {
	pos     token.Pos
	durable bool // else: guarded mutation
}

func run(pass *analysis.Pass) error {
	if pass.CFGs == nil || !scopedPkg(pass.Pkg.Path()) {
		return nil
	}
	calleeCache := map[*types.Func][]event{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			if !strings.HasPrefix(strings.ToLower(fd.Name.Name), "handle") {
				continue
			}
			check(pass, fd, calleeCache)
		}
	}
	return nil
}

func scopedPkg(path string) bool {
	short := shortPkg(path)
	return short == "kvstore" || short == "cloudstore"
}

func check(pass *analysis.Pass, fd *ast.FuncDecl, calleeCache map[*types.Func][]event) {
	recv := recvObj(pass.TypesInfo, fd)
	if recv == nil {
		return
	}
	g := pass.CFGs.For(fd)
	locked := lockIntervals(pass.TypesInfo, fd.Body, recv)

	apply := func(s state, n ast.Node) state {
		for _, ev := range nodeEvents(pass, n, recv, locked, calleeCache) {
			if ev.durable {
				if s.mask&cleanBit != 0 {
					s.mask = (s.mask &^ cleanBit) | durableBit
				}
			} else {
				if s.mask&cleanBit != 0 {
					s.mask = (s.mask &^ cleanBit) | dirtyBit
					if s.dirtyPos == token.NoPos || ev.pos < s.dirtyPos {
						s.dirtyPos = ev.pos
					}
				}
			}
		}
		return s
	}

	res := dataflow.Solve(g, dataflow.Analysis[state]{
		Dir:    dataflow.Forward,
		Bottom: bottom, Join: join, Equal: equal,
		Boundary: func() state { return state{mask: cleanBit} },
		Transfer: func(b *cfg.Block, in state) state {
			s := in
			for _, n := range b.Nodes {
				s = apply(s, n)
			}
			return s
		},
		FlowEdge: func(e *cfg.Edge, f state) state {
			return refine(pass, e, f, recv)
		},
	})

	// Walk each block replaying the transfer to catch success-acking
	// returns mid-block with a dirty path behind them.
	reported := map[token.Pos]bool{}
	for _, b := range g.Blocks {
		s, ok := res.In[b]
		if !ok {
			continue
		}
		for _, n := range b.Nodes {
			if ret, isRet := n.(*ast.ReturnStmt); isRet && acksSuccess(ret) && s.mask&dirtyBit != 0 {
				pos := s.dirtyPos
				if pos == token.NoPos {
					pos = ret.Pos()
				}
				if !reported[pos] {
					reported[pos] = true
					pass.Reportf(pos, "receiver state is mutated before the durable write on a path acking success (return on line %d); append to the WAL / write to disk first, then mutate memory",
						pass.Fset.Position(ret.Pos()).Line)
				}
			}
			s = apply(s, n)
		}
	}
}

// nodeEvents lists the durability events this node contributes: direct
// durable calls, direct guarded mutations, and — one level down —
// the positional events of same-module callee bodies.
func nodeEvents(pass *analysis.Pass, n ast.Node, recv types.Object, locked []interval, calleeCache map[*types.Func][]event) []event {
	var out []event
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // separate function, separate invariant
		case *ast.CallExpr:
			if isDurableCall(pass.TypesInfo, x) {
				out = append(out, event{pos: x.Pos(), durable: true})
				return true
			}
			if isDelete(pass.TypesInfo, x) && len(x.Args) > 0 && rootedAt(pass.TypesInfo, x.Args[0], recv) {
				if inLocked(locked, x.Pos()) {
					out = append(out, event{pos: x.Pos()})
				}
				return true
			}
			// One level of callees: replay the callee's own events at
			// the call site (applyPut-style mutation helpers,
			// put-style durable-then-mutate helpers).
			for _, ev := range calleeEvents(pass, x, calleeCache) {
				out = append(out, event{pos: x.Pos(), durable: ev.durable})
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if rootedAt(pass.TypesInfo, lhs, recv) && !observability(lhs) && inLocked(locked, x.Pos()) {
					out = append(out, event{pos: x.Pos()})
					break
				}
			}
		case *ast.IncDecStmt:
			if rootedAt(pass.TypesInfo, x.X, recv) && !observability(x.X) && inLocked(locked, x.Pos()) {
				out = append(out, event{pos: x.Pos()})
			}
		}
		return true
	})
	return out
}

// calleeEvents computes (memoized) the positional durable/mutation
// events of a same-module callee body — the one-level interprocedural
// composition with Pass.Summaries.
func calleeEvents(pass *analysis.Pass, call *ast.CallExpr, cache map[*types.Func][]event) []event {
	fn, ok := pass.CalleeObject(call).(*types.Func)
	if !ok || pass.Summaries == nil {
		return nil
	}
	if evs, done := cache[fn]; done {
		return evs
	}
	cache[fn] = nil // cut recursion: one level only
	fs := pass.Summaries.ForFunc(fn)
	if fs == nil || fs.Node == nil || fs.Node.Decl == nil || fs.Node.Decl.Body == nil {
		return nil
	}
	decl, info := fs.Node.Decl, fs.Node.Pkg.Info
	crecv := recvObj(info, decl)
	var out []event
	var locked []interval
	if crecv != nil {
		locked = lockIntervals(info, decl.Body, crecv)
	}
	ast.Inspect(decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isDurableCall(info, x) {
				out = append(out, event{pos: x.Pos(), durable: true})
			} else if crecv != nil && isDelete(info, x) && len(x.Args) > 0 && rootedAt(info, x.Args[0], crecv) && inLocked(locked, x.Pos()) {
				out = append(out, event{pos: x.Pos()})
			}
		case *ast.AssignStmt:
			if crecv == nil {
				return true
			}
			for _, lhs := range x.Lhs {
				if rootedAt(info, lhs, crecv) && !observability(lhs) && inLocked(locked, x.Pos()) {
					out = append(out, event{pos: x.Pos()})
					break
				}
			}
		case *ast.IncDecStmt:
			if crecv != nil && rootedAt(info, x.X, crecv) && !observability(x.X) && inLocked(locked, x.Pos()) {
				out = append(out, event{pos: x.Pos()})
			}
		}
		return true
	})
	if selfOrdered(out) {
		out = nil
	}
	cache[fn] = out
	return out
}

// selfOrdered reports whether a callee's events are a durable write
// followed by the mutations it covers.
func selfOrdered(evs []event) bool {
	if len(evs) == 0 || !evs[0].durable {
		return false
	}
	for _, ev := range evs {
		if !ev.durable {
			return true
		}
	}
	return false
}

// refine exempts the arm where the durability facility is known nil:
// `if n.wal == nil`, or `if n.wal != nil`'s false arm — nothing to
// order against, the path jumps to durable.
func refine(pass *analysis.Pass, e *cfg.Edge, f state, recv types.Object) state {
	if e.Cond == nil {
		return f
	}
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return f
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	xNil, yNil := isNilIdent(x), isNilIdent(y)
	if xNil == yNil {
		return f
	}
	other := x
	if xNil {
		other = y
	}
	if !isFacility(pass.TypesInfo, other, recv) {
		return f
	}
	eq := bin.Op == token.EQL
	assertsNil := (eq && !e.Negate) || (!eq && e.Negate)
	if !assertsNil {
		return f
	}
	if f.mask&cleanBit != 0 {
		f.mask = (f.mask &^ cleanBit) | durableBit
	}
	return f
}

// isFacility matches a receiver-rooted durability facility selector:
// a field whose type is named WAL or whose name is wal.
func isFacility(info *types.Info, e ast.Expr, recv types.Object) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || !rootedAt(info, sel.X, recv) {
		return false
	}
	if sel.Sel.Name == "wal" {
		return true
	}
	if tv, ok := info.Types[e]; ok {
		if named, ok := deref(tv.Type).(*types.Named); ok {
			return named.Obj().Name() == "WAL"
		}
	}
	return false
}

// isDurableCall matches the durable sinks: (*WAL).Append and its batch
// form appendFrames, the cloud container log's sync, and
// reclog.WriteFileAtomic.
func isDurableCall(info *types.Info, call *ast.CallExpr) bool {
	if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := fun.Sel.Name
		if x, ok := fun.X.(*ast.Ident); ok {
			if pkg, ok := info.Uses[x].(*types.PkgName); ok {
				return name == "WriteFileAtomic" && shortPkg(pkg.Imported().Path()) == "reclog"
			}
		}
		tv, ok := info.Types[fun.X]
		if !ok {
			return false
		}
		named, ok := deref(tv.Type).(*types.Named)
		if !ok {
			return false
		}
		switch named.Obj().Name() {
		case "WAL":
			return name == "Append" || name == "appendFrames"
		case "containerLog":
			return name == "sync"
		}
	}
	return false
}

// interval is one mutex-held region, positionally.
type interval struct{ lo, hi token.Pos }

func inLocked(ivs []interval, pos token.Pos) bool {
	for _, iv := range ivs {
		if iv.lo <= pos && pos <= iv.hi {
			return true
		}
	}
	return false
}

// lockIntervals sweeps the body for receiver-rooted mutex Lock/RLock
// calls and pairs each with the next Unlock/RUnlock (or the body end;
// a deferred unlock holds to the end by construction).
func lockIntervals(info *types.Info, body *ast.BlockStmt, recv types.Object) []interval {
	type op struct {
		pos    token.Pos
		lock   bool
		defers bool
	}
	var ops []op
	deferred := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			deferred = true
			ast.Inspect(x.Call, walk)
			deferred = false
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || !rootedAt(info, sel.X, recv) {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "RLock":
				ops = append(ops, op{pos: x.Pos(), lock: true, defers: deferred})
			case "Unlock", "RUnlock":
				ops = append(ops, op{pos: x.Pos(), defers: deferred})
			}
		}
		return true
	}
	ast.Inspect(body, walk)

	var out []interval
	for i, o := range ops {
		if !o.lock {
			continue
		}
		hi := body.End()
		for _, u := range ops[i+1:] {
			if !u.lock && !u.defers {
				hi = u.pos
				break
			}
		}
		out = append(out, interval{lo: o.pos, hi: hi})
	}
	return out
}

// observability reports whether the lvalue goes through a stats or
// metrics field. Counters are not state the ack promises — a crash
// losing an in-memory metric is not the durability bug class — so
// their updates are exempt from the ordering.
func observability(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if n := strings.ToLower(x.Sel.Name); n == "stats" || n == "metrics" {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// rootedAt reports whether the lvalue/selector chain bottoms out at
// the receiver object.
func rootedAt(info *types.Info, e ast.Expr, recv types.Object) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o == recv
			}
			return info.Defs[x] == recv
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

func recvObj(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[fd.Recv.List[0].Names[0]]
}

func isDelete(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "delete" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// acksSuccess matches returns whose final result is the literal nil —
// the handler telling its caller the operation succeeded.
func acksSuccess(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	id, ok := ast.Unparen(ret.Results[len(ret.Results)-1]).(*ast.Ident)
	return ok && id.Name == "nil"
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
