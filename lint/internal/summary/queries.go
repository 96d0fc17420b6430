package summary

import (
	"go/token"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------
// Transitive I/O (lockedio)
// ---------------------------------------------------------------------

// IOPath describes how a function transitively reaches network I/O.
type IOPath struct {
	// Chain lists function display names from the queried function down
	// to (and including) the one performing the I/O.
	Chain []string
	// Desc is the I/O classification at the end of the chain.
	Desc string
	// Pos is the I/O site.
	Pos token.Pos
}

// ReachesIO reports whether the function with the given ID performs
// network I/O itself or through any chain of synchronous calls.
// Interface fallback edges are followed (any implementation that dials
// counts).
func (s *Set) ReachesIO(id string) *IOPath {
	if p, done := s.reachesIO[id]; done {
		return p
	}
	s.reachesIO[id] = nil // cycle guard: a cycle cannot introduce new I/O
	fs := s.Funcs[id]
	if fs == nil {
		return nil
	}
	if len(fs.IO) > 0 {
		p := &IOPath{Chain: []string{displayName(id)}, Desc: fs.IO[0].Desc, Pos: fs.IO[0].Pos}
		s.reachesIO[id] = p
		return p
	}
	if fs.Node != nil {
		for _, e := range fs.Node.Out {
			if sub := s.ReachesIO(e.Callee.ID); sub != nil {
				p := &IOPath{
					Chain: append([]string{displayName(id)}, sub.Chain...),
					Desc:  sub.Desc,
					Pos:   sub.Pos,
				}
				s.reachesIO[id] = p
				return p
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Transitive lock acquisition (lockorder)
// ---------------------------------------------------------------------

// TransitiveLocks returns every module-wide lock identity the function
// (or any synchronous callee, to any depth) may acquire, mapped to a
// representative acquisition site.
func (s *Set) TransitiveLocks(id string) map[string]token.Pos {
	if m, done := s.locksOf[id]; done {
		return m
	}
	s.locksOf[id] = nil // cycle guard
	fs := s.Funcs[id]
	if fs == nil {
		return nil
	}
	out := make(map[string]token.Pos)
	for _, l := range fs.Locks {
		if l.Key != "" {
			if _, ok := out[l.Key]; !ok {
				out[l.Key] = l.Pos
			}
		}
	}
	if fs.Node != nil {
		for _, e := range fs.Node.Out {
			for key, pos := range s.TransitiveLocks(e.Callee.ID) {
				if _, ok := out[key]; !ok {
					out[key] = pos
				}
			}
		}
	}
	if len(out) == 0 {
		out = nil
	}
	s.locksOf[id] = out
	return out
}

// LockGraph is the module-wide mutex acquisition-order graph: an edge
// A→B means some execution path acquires B while holding A.
type LockGraph struct {
	// Edges maps outer lock -> inner lock -> representative site.
	Edges map[string]map[string]LockOrderSite
}

// LockOrderSite documents one acquired-while-held observation.
type LockOrderSite struct {
	// Pos is where the inner acquisition (or the call leading to it)
	// happens while the outer lock is held.
	Pos token.Pos
	// Func is the function containing the observation.
	Func string
	// Via names the callee chain when the inner acquisition is
	// interprocedural ("" for a direct nested Lock).
	Via string
}

// LockOrder builds (and memoizes) the module-wide acquisition-order
// graph from every function's direct nesting edges plus its
// calls-under-lock joined with callees' transitive lock sets.
func (s *Set) LockOrder() *LockGraph {
	if s.lockGraph != nil {
		return s.lockGraph
	}
	g := &LockGraph{Edges: make(map[string]map[string]LockOrderSite)}
	add := func(outer, inner string, site LockOrderSite) {
		m := g.Edges[outer]
		if m == nil {
			m = make(map[string]LockOrderSite)
			g.Edges[outer] = m
		}
		if old, ok := m[inner]; !ok || site.Pos < old.Pos {
			m[inner] = site
		}
	}
	for _, id := range s.sortedFuncIDs() {
		fs := s.Funcs[id]
		for _, e := range fs.LockEdges {
			add(e.Outer, e.Inner, LockOrderSite{Pos: e.Pos, Func: displayName(id)})
		}
		for _, cul := range fs.CallsUnderLock {
			if cul.LockKey == "" || cul.CalleeID == "" {
				continue
			}
			for inner := range s.TransitiveLocks(cul.CalleeID) {
				if inner == cul.LockKey {
					// Re-acquisition through a call is a real deadlock
					// too, but distinguishing reentrancy from a handoff
					// needs may-alias reasoning; the direct self-edge
					// case is covered intra-procedurally.
					continue
				}
				add(cul.LockKey, inner, LockOrderSite{
					Pos: cul.Pos, Func: displayName(id), Via: cul.CalleeName,
				})
			}
		}
	}
	s.lockGraph = g
	return g
}

// Cycle is one lock-order cycle: Locks[0] → Locks[1] → … → Locks[0].
type Cycle struct {
	// Locks lists the cycle's lock identities in order; the last edge
	// returns to Locks[0]. A single-element cycle is a self-deadlock.
	Locks []string
	// Sites documents each edge Locks[i] → Locks[(i+1)%len].
	Sites []LockOrderSite
}

// Cycles enumerates lock-order cycles deterministically: for every
// strongly connected component of the acquisition graph one canonical
// cycle is reported, rotated to start at its lexicographically smallest
// lock. Self-edges (relock while held) are single-element cycles.
func (g *LockGraph) Cycles() []Cycle {
	// Collect nodes.
	nodeSet := make(map[string]bool)
	for outer, inners := range g.Edges {
		nodeSet[outer] = true
		for inner := range inners {
			nodeSet[inner] = true
		}
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	// Tarjan SCC, iterative enough for lock graphs (tiny).
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		targets := sortedKeys(g.Edges[v])
		for _, w := range targets {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}

	var out []Cycle
	// A self-edge is an immediate self-deadlock whatever SCC the lock
	// belongs to; report it first and keep multi-lock cycle search free
	// of self-loops.
	for _, v := range nodes {
		if site, ok := g.Edges[v][v]; ok {
			out = append(out, Cycle{Locks: []string{v}, Sites: []LockOrderSite{site}})
		}
	}
	for _, scc := range sccs {
		if len(scc) == 1 {
			continue
		}
		// Find one canonical cycle through the smallest lock via BFS
		// back to the start inside the SCC.
		inSCC := make(map[string]bool, len(scc))
		for _, v := range scc {
			inSCC[v] = true
		}
		start := scc[0]
		path := shortestCycle(g, start, inSCC)
		if len(path) == 0 {
			continue
		}
		cyc := Cycle{Locks: path}
		for i := range path {
			from, to := path[i], path[(i+1)%len(path)]
			cyc.Sites = append(cyc.Sites, g.Edges[from][to])
		}
		out = append(out, cyc)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].Locks, "→") < strings.Join(out[j].Locks, "→")
	})
	return out
}

// shortestCycle finds a minimal cycle from start back to start using
// only SCC-internal edges, breaking ties lexicographically.
func shortestCycle(g *LockGraph, start string, inSCC map[string]bool) []string {
	type qitem struct {
		node string
		path []string
	}
	queue := []qitem{{start, []string{start}}}
	visited := map[string]bool{start: true}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, w := range sortedKeys(g.Edges[it.node]) {
			if !inSCC[w] || w == it.node {
				continue
			}
			if w == start {
				return it.path
			}
			if !visited[w] {
				visited[w] = true
				next := make([]string, len(it.path), len(it.path)+1)
				copy(next, it.path)
				queue = append(queue, qitem{w, append(next, w)})
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

// displayName compresses a FuncID for diagnostics:
// "(*efdedup/internal/kvstore.Cluster).Get" → "(*kvstore.Cluster).Get",
// "efdedup/internal/chunk.Sum" → "chunk.Sum".
func displayName(id string) string {
	out := id
	for {
		i := strings.Index(out, "/")
		if i < 0 {
			return out
		}
		// Trim back to the start of the path segment chain.
		j := i
		for j > 0 && isPathRune(out[j-1]) {
			j--
		}
		out = out[:j] + out[i+1:]
	}
}

func isPathRune(b byte) bool {
	return b == '.' || b == '-' || b == '_' || b == '~' ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

func sortedKeys(m map[string]LockOrderSite) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (s *Set) sortedFuncIDs() []string {
	out := make([]string, 0, len(s.Funcs))
	for id := range s.Funcs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
