// Package lockorder detects potential deadlocks: it builds the
// module-wide mutex acquisition-order graph from the interprocedural
// summaries (lock B acquired while lock A is held, directly or through
// any chain of synchronous calls) and reports every cycle with its full
// acquisition chain. A cycle means two executions can acquire the same
// mutexes in opposite orders and block each other forever — the classic
// distributed-index deadlock the D2-ring KV store must never
// reintroduce.
//
// Only mutexes with a stable module-wide identity participate:
// struct-field mutexes ("(kvstore.Cluster).mu") and package-level
// mutexes ("transport.connMu"). Function-local mutexes cannot deadlock
// across call chains and are ignored. A self-edge — re-acquiring a
// mutex already held — is reported as an immediate self-deadlock.
//
// Each cycle is reported once for the whole module, anchored at its
// lexically smallest acquisition site.
package lockorder

import (
	"fmt"
	"strings"

	"efdedup/lint/analysis"
	"efdedup/lint/internal/summary"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "report mutex acquisition-order cycles (potential deadlocks) across the whole module",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	sums := pass.Summaries
	if sums == nil {
		return nil
	}
	for _, cyc := range sums.LockOrder().Cycles() {
		// Anchor the module-wide cycle at its lexically smallest edge
		// site and report it only from the pass that owns that file, so
		// a cycle spanning packages appears exactly once.
		anchor := cyc.Sites[0]
		for _, site := range cyc.Sites[1:] {
			if site.Pos < anchor.Pos {
				anchor = site
			}
		}
		if !pass.InFiles(anchor.Pos) {
			continue
		}
		if len(cyc.Locks) == 1 {
			pass.Reportf(anchor.Pos, "self-deadlock: %s acquired while already held in %s",
				cyc.Locks[0], anchor.Func)
			continue
		}
		pass.Reportf(anchor.Pos, "potential deadlock: lock-order cycle %s → %s; %s",
			strings.Join(cyc.Locks, " → "), cyc.Locks[0], chain(sums, cyc))
	}
	return nil
}

// chain renders every edge of the cycle with its acquisition site:
// "(a.T).mu held when (b.U).mu acquired in F [via g] (f.go:12); ...".
func chain(sums *summary.Set, cyc summary.Cycle) string {
	parts := make([]string, 0, len(cyc.Sites))
	for i, site := range cyc.Sites {
		outer := cyc.Locks[i]
		inner := cyc.Locks[(i+1)%len(cyc.Locks)]
		via := ""
		if site.Via != "" {
			via = fmt.Sprintf(" via call to %s", site.Via)
		}
		parts = append(parts, fmt.Sprintf("%s held when %s acquired in %s%s (%s)",
			outer, inner, site.Func, via, sums.FmtPos(site.Pos)))
	}
	return strings.Join(parts, "; ")
}
