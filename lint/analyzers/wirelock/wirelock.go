// Package wirelock pins the module's wire protocol to a checked-in
// schema lockfile. The wire index's view of the RPC surface — every
// method name with its registration package, every extracted codec
// layout — is compared against lint/wire.lock; any drift is reported
// line by line until the file is regenerated with `make wire-lock`.
// That turns every wire-format change into an explicit, reviewable
// diff: a renamed method, a widened field or a new codec cannot land
// silently.
//
// The comparison is module-wide, so it runs once per lint invocation:
// only the pass owning the anchor package (the lexically first package
// containing wire entities) performs it. The lockfile is found by
// walking up from the anchor package's directory, looking for
// wire.lock or lint/wire.lock at each level; EFDEDUP_WIRE_LOCK
// overrides the search (used by fixtures and CI staleness checks).
package wirelock

import (
	"os"
	"path/filepath"

	"efdedup/lint/analysis"
	"efdedup/lint/internal/wire"
)

// LintModulePrefix marks the lint module's own packages: its helpers
// are excluded from the lock so linting the linter never perturbs the
// protocol fingerprint.
const LintModulePrefix = "efdedup/lint"

// Analyzer checks the wire surface against the schema lockfile.
var Analyzer = &analysis.Analyzer{
	Name: "wirelock",
	Doc:  "the RPC surface and codec layouts must match the checked-in wire.lock",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	ix := pass.Wire
	if ix == nil || len(pass.Files) == 0 {
		return nil
	}
	if pkgs := ix.Pkgs(); len(pkgs) == 0 || pass.Pkg.Path() != pkgs[0] {
		return nil
	}
	got := wire.NewLock(ix, LintModulePrefix)
	if len(got.Methods) == 0 && len(got.Layouts) == 0 {
		return nil
	}
	pos := pass.Files[0].Name.Pos()
	path := lockPath(pass)
	if path == "" {
		pass.Reportf(pos, "module has %d RPC method(s) and %d codec layout(s) but no wire.lock; generate one with `make wire-lock`",
			len(got.Methods), len(got.Layouts))
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		pass.Reportf(pos, "wire.lock unreadable: %v (regenerate with `make wire-lock`)", err)
		return nil
	}
	want, err := wire.ParseLock(data)
	if err != nil {
		pass.Reportf(pos, "%v (regenerate with `make wire-lock`)", err)
		return nil
	}
	for _, line := range want.Diff(got) {
		pass.Reportf(pos, "wire.lock is stale: %s (review the change, then run `make wire-lock`)", line)
	}
	return nil
}

// lockPath locates the lockfile for the package under analysis.
func lockPath(pass *analysis.Pass) string {
	if p := os.Getenv("EFDEDUP_WIRE_LOCK"); p != "" {
		return p
	}
	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	for {
		for _, cand := range []string{filepath.Join(dir, "wire.lock"), filepath.Join(dir, "lint", "wire.lock")} {
			if st, err := os.Stat(cand); err == nil && !st.IsDir() {
				return cand
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}
