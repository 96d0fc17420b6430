// Package checker runs analyzers over loaded packages, honours
// //lint:ignore suppression directives and renders diagnostics.
package checker

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"efdedup/lint/analysis"
	"efdedup/lint/internal/load"
	"efdedup/lint/internal/summary"
	"efdedup/lint/internal/wire"
)

// Diagnostic is a rendered finding.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

// Run applies every analyzer to every package and returns the
// surviving (non-suppressed) diagnostics sorted by position.
func Run(analyzers []*analysis.Analyzer, pkgs []*load.Package, fset *token.FileSet) ([]Diagnostic, error) {
	return RunScoped(analyzers, pkgs, pkgs, fset)
}

// Timing is one analyzer's wall time summed over every target package,
// for `efdedup-lint -v` — slow analyzers should be visible, not felt.
type Timing struct {
	Analyzer string
	Elapsed  time.Duration
}

// RunScoped applies every analyzer to the target packages while
// building the interprocedural summary store over the (usually larger)
// universe, so cross-package facts — callee summaries, lock-order
// edges, reachability — are visible even when diagnostics are only
// wanted for a subset. Suppression directives are honoured wherever
// the diagnostic lands, including files of non-target universe
// packages (a module-wide finding may be anchored in a dependency).
func RunScoped(analyzers []*analysis.Analyzer, targets, universe []*load.Package, fset *token.FileSet) ([]Diagnostic, error) {
	diags, _, err := RunScopedTimed(analyzers, targets, universe, fset)
	return diags, err
}

// RunScopedTimed is RunScoped plus per-analyzer wall time, ordered
// slowest first.
func RunScopedTimed(analyzers []*analysis.Analyzer, targets, universe []*load.Package, fset *token.FileSet) ([]Diagnostic, []Timing, error) {
	sums := summary.Build(fset, universe)
	wireIx := wire.BuildIndex(fset, universe)
	var allFiles []*ast.File
	for _, pkg := range universe {
		allFiles = append(allFiles, pkg.Files...)
	}
	ignores := collectIgnores(fset, allFiles)
	elapsed := make(map[string]time.Duration, len(analyzers))
	var out []Diagnostic
	for _, pkg := range targets {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Summaries: sums,
				Wire:      wireIx,
			}
			pass.Report = func(d analysis.Diagnostic) {
				pos := fset.Position(d.Pos)
				if ignores.suppressed(a.Name, pos) {
					return
				}
				out = append(out, Diagnostic{Position: pos, Analyzer: a.Name, Message: d.Message})
			}
			start := time.Now()
			err := a.Run(pass)
			elapsed[a.Name] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %v", pkg.PkgPath, a.Name, err)
			}
		}
	}
	timings := make([]Timing, 0, len(elapsed))
	for _, a := range analyzers {
		timings = append(timings, Timing{Analyzer: a.Name, Elapsed: elapsed[a.Name]})
	}
	sort.Slice(timings, func(i, j int) bool { return timings[i].Elapsed > timings[j].Elapsed })
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, timings, nil
}

// Print writes diagnostics in file:line:col form, with paths relative
// to dir when possible.
func Print(w io.Writer, dir string, diags []Diagnostic) {
	for _, d := range diags {
		name := d.Position.Filename
		if rel, err := filepath.Rel(dir, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", name, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
	}
}

// PrintJSON writes diagnostics as a JSON array of findings, one object
// per diagnostic, for machine consumers (editor integrations, the CI
// problem matcher's JSON mode). Paths are relative to dir when
// possible, matching the text renderer.
func PrintJSON(w io.Writer, dir string, diags []Diagnostic) error {
	type finding struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		name := d.Position.Filename
		if rel, err := filepath.Rel(dir, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		out = append(out, finding{
			File: name, Line: d.Position.Line, Column: d.Position.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ignoreIndex maps filename → line → analyzer names suppressed there.
type ignoreIndex map[string]map[int][]string

// collectIgnores scans file comments for //lint:ignore directives.
//
// Syntax (staticcheck-compatible):
//
//	//lint:ignore analyzer1[,analyzer2] reason text
//
// The directive suppresses matching diagnostics reported on its own
// line (trailing comment) or on the line immediately below (comment on
// its own line above the offending statement). When the annotated
// statement spans multiple lines — a multi-line composite literal, a
// wrapped call — the directive covers the statement's whole extent, so
// a diagnostic anchored three lines into the literal is still
// suppressed. "all" matches every analyzer. A directive without a
// reason is ignored — the reason is the point.
func collectIgnores(fset *token.FileSet, files []*ast.File) ignoreIndex {
	idx := make(ignoreIndex)
	for _, f := range files {
		fileIdx := make(map[int][]string)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if names := ignoreNames(c.Text); names != nil {
					pos := fset.Position(c.Pos())
					fileIdx[pos.Line] = append(fileIdx[pos.Line], names...)
				}
			}
		}
		if len(fileIdx) == 0 {
			continue
		}
		extendToStatements(fset, f, fileIdx)
		idx[fset.Position(f.Pos()).Filename] = fileIdx
	}
	return idx
}

// ignoreNames returns the analyzer names a //lint:ignore comment
// lists, or nil when the comment is no directive or gives no reason.
func ignoreNames(comment string) []string {
	text, ok := strings.CutPrefix(strings.TrimPrefix(comment, "//"), "lint:ignore ")
	if !ok {
		return nil
	}
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return nil // no reason given: directive not honoured
	}
	return strings.Split(fields[0], ",")
}

// UnknownIgnores reports every //lint:ignore directive in the packages'
// files that names an analyzer outside registered. Such a name
// suppresses nothing — its analyzer was deleted or renamed — and tells
// a reader that a check still guards the line.
func UnknownIgnores(fset *token.FileSet, pkgs []*load.Package, registered []*analysis.Analyzer) []Diagnostic {
	known := map[string]bool{"all": true}
	for _, a := range registered {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, name := range ignoreNames(c.Text) {
						if !known[name] {
							out = append(out, Diagnostic{
								Position: fset.Position(c.Pos()),
								Analyzer: "ignore",
								Message:  fmt.Sprintf("//lint:ignore names %q, which is not a registered analyzer: drop the name, and the directive once it names none", name),
							})
						}
					}
				}
			}
		}
	}
	return out
}

// extendToStatements widens directive coverage over multi-line
// statements: a directive whose own line (trailing form) or next line
// (line-above form) starts a statement or declaration spec covers
// every line of that node. Only statements and var/const specs extend
// — never whole function declarations, so a stray directive above a
// func cannot silence its body.
func extendToStatements(fset *token.FileSet, f *ast.File, fileIdx map[int][]string) {
	// Snapshot the directive lines: extension must key off the raw
	// directives, not off lines added by other extensions.
	raw := make(map[int][]string, len(fileIdx))
	for line, names := range fileIdx {
		raw[line] = names
	}
	extend := func(n ast.Node) {
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		if end <= start {
			return
		}
		var names []string
		names = append(names, raw[start]...)   // trailing directive on the first line
		names = append(names, raw[start-1]...) // directive on its own line above
		if len(names) == 0 {
			return
		}
		for line := start + 1; line <= end; line++ {
			fileIdx[line] = append(fileIdx[line], names...)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		// Only statements without nested blocks extend: a directive
		// above an if/for would otherwise silence an arbitrarily large
		// body. Multi-line composite literals, wrapped calls and var
		// specs are the shapes the directive legitimately annotates.
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.DeclStmt,
			*ast.GoStmt, *ast.DeferStmt, *ast.SendStmt, *ast.ValueSpec:
			extend(n)
		}
		return true
	})
}

// suppressed reports whether a diagnostic from analyzer at pos is
// covered by a directive on its line or the line above.
func (idx ignoreIndex) suppressed(analyzer string, pos token.Position) bool {
	m := idx[pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range m[line] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}
