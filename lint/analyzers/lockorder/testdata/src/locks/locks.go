// Package locks exercises the module-wide lock-order cycle detection.
package locks

import "sync"

// Registry and Journal are locked in opposite orders by flush and
// record: a two-lock cycle.
type Registry struct {
	mu      sync.Mutex
	entries map[string]int
}

type Journal struct {
	mu   sync.Mutex
	rows []string
}

var (
	reg Registry
	jrn Journal
)

func flush() {
	reg.mu.Lock()
	jrn.mu.Lock() // want `potential deadlock: lock-order cycle \(locks\.Journal\)\.mu → \(locks\.Registry\)\.mu → \(locks\.Journal\)\.mu`
	jrn.rows = nil
	jrn.mu.Unlock()
	reg.mu.Unlock()
}

func record() {
	jrn.mu.Lock()
	reg.mu.Lock()
	reg.entries = nil
	reg.mu.Unlock()
	jrn.mu.Unlock()
}

// Three-mutex cycle, one edge per function, with the closing edge
// acquired through a callee: L1 → L2 → L3 → L1.
type L1 struct{ mu sync.Mutex }

type L2 struct{ mu sync.Mutex }

type L3 struct{ mu sync.Mutex }

var (
	l1 L1
	l2 L2
	l3 L3
)

func step12() {
	l1.mu.Lock()
	defer l1.mu.Unlock()
	l2.mu.Lock() // want `potential deadlock: lock-order cycle \(locks\.L1\)\.mu → \(locks\.L2\)\.mu → \(locks\.L3\)\.mu → \(locks\.L1\)\.mu; \(locks\.L1\)\.mu held when \(locks\.L2\)\.mu acquired in locks\.step12 .*; \(locks\.L2\)\.mu held when \(locks\.L3\)\.mu acquired in locks\.step23 .*; \(locks\.L3\)\.mu held when \(locks\.L1\)\.mu acquired in locks\.step31 via call to lockL1`
	defer l2.mu.Unlock()
}

func step23() {
	l2.mu.Lock()
	defer l2.mu.Unlock()
	l3.mu.Lock()
	defer l3.mu.Unlock()
}

// step31 closes the cycle interprocedurally: L1 is acquired inside a
// callee while L3 is held.
func step31() {
	l3.mu.Lock()
	defer l3.mu.Unlock()
	lockL1()
}

func lockL1() {
	l1.mu.Lock()
	defer l1.mu.Unlock()
}

// Re-acquiring a held mutex is an immediate self-deadlock.
func relock() {
	reg.mu.Lock()
	reg.mu.Lock() // want `self-deadlock: \(locks\.Registry\)\.mu acquired while already held in locks\.relock`
	reg.mu.Unlock()
	reg.mu.Unlock()
}

// Consistent ordering is fine: Hierarchy always takes outer before
// inner, in every function.
type Hierarchy struct {
	outer sync.Mutex
	inner sync.Mutex
}

var h Hierarchy

func consistentA() {
	h.outer.Lock()
	h.inner.Lock()
	h.inner.Unlock()
	h.outer.Unlock()
}

func consistentB() {
	h.outer.Lock()
	defer h.outer.Unlock()
	h.inner.Lock()
	defer h.inner.Unlock()
}

// Sequential (non-nested) acquisition in any order is fine.
func sequential() {
	jrn.mu.Lock()
	jrn.mu.Unlock()
	reg.mu.Lock()
	reg.mu.Unlock()
}

// Local mutexes have no module-wide identity and never form cycles.
func locals() {
	var a, b sync.Mutex
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
	b.Lock()
	a.Lock()
	a.Unlock()
	b.Unlock()
}

// An unlock on an early-return path does not end the held region for
// the statements after it: put calls apply with gate.mu still held, so
// snapshot's opposite order is a cycle.
type Gate struct{ mu sync.RWMutex }

type Table struct {
	mu   sync.RWMutex
	rows map[string]int
}

var (
	gate Gate
	tbl  Table
)

func put(fail bool) bool {
	gate.mu.RLock()
	if fail {
		gate.mu.RUnlock()
		return false
	}
	apply() // want `potential deadlock: lock-order cycle \(locks\.Gate\)\.mu → \(locks\.Table\)\.mu → \(locks\.Gate\)\.mu; \(locks\.Gate\)\.mu held when \(locks\.Table\)\.mu acquired in locks\.put via call to apply`
	gate.mu.RUnlock()
	return true
}

func apply() {
	tbl.mu.Lock()
	tbl.rows = nil
	tbl.mu.Unlock()
}

func snapshot() {
	tbl.mu.RLock()
	gate.mu.Lock()
	gate.mu.Unlock()
	tbl.mu.RUnlock()
}

// A lock taken and released inside an early-exit block ends there: the
// second acquisition is not a re-acquisition.
func tally(fail bool) {
	var mu sync.Mutex
	if fail {
		mu.Lock()
		mu.Unlock()
		return
	}
	mu.Lock()
	mu.Unlock()
}
