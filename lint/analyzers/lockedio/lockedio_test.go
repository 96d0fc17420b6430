package lockedio_test

import (
	"testing"

	"efdedup/lint/analysistest"
	"efdedup/lint/analyzers/lockedio"
)

func TestLockedIO(t *testing.T) {
	analysistest.Run(t, lockedio.Analyzer, "lockedio")
}

// TestLockedIOCallChain covers locks held across calls whose callees
// reach I/O, reported with the call path.
func TestLockedIOCallChain(t *testing.T) {
	analysistest.Run(t, lockedio.Analyzer, "chain")
}

// TestSuppression pins the //lint:ignore placement semantics for
// call-chain diagnostics: call-site directives suppress, callee
// directives do not.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, lockedio.Analyzer, "suppress")
}
