package checker

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"efdedup/lint/analysis"
	"efdedup/lint/internal/load"
)

func parseIgnores(t *testing.T, src string) (*token.FileSet, ignoreIndex) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, collectIgnores(fset, []*ast.File{f})
}

// A directive above a multi-line statement covers every line of the
// statement, so diagnostics anchored on continuation lines are
// suppressed too.
func TestIgnoreCoversMultiLineStatement(t *testing.T) {
	_, idx := parseIgnores(t, `package p

func f() []string {
	var out []string
	//lint:ignore lockedio formatted per batch by design
	out = append(out,
		g(1),
		g(2),
	)
	return out
}

func g(int) string { return "" }
`)
	// The statement spans lines 6-9; the directive sits on line 5.
	for line := 6; line <= 9; line++ {
		if !idx.suppressed("lockedio", token.Position{Filename: "x.go", Line: line}) {
			t.Errorf("line %d not covered by the directive", line)
		}
	}
	if idx.suppressed("lockedio", token.Position{Filename: "x.go", Line: 11}) {
		t.Error("line after the statement should not be covered")
	}
	if idx.suppressed("fsyncrename", token.Position{Filename: "x.go", Line: 7}) {
		t.Error("a different analyzer should not be suppressed")
	}
}

// A trailing directive on the first line of a multi-line statement
// extends the same way.
func TestIgnoreTrailingFormExtends(t *testing.T) {
	_, idx := parseIgnores(t, `package p

func f() []string {
	var out []string
	out = append(out, //lint:ignore lockedio one-shot formatting
		g(1),
	)
	return out
}

func g(int) string { return "" }
`)
	for line := 5; line <= 7; line++ {
		if !idx.suppressed("lockedio", token.Position{Filename: "x.go", Line: line}) {
			t.Errorf("line %d not covered by the trailing directive", line)
		}
	}
}

// A directive above a block-carrying statement must NOT silence the
// whole body: only simple statements extend.
func TestIgnoreDoesNotExtendOverBlocks(t *testing.T) {
	_, idx := parseIgnores(t, `package p

func f(xs []int) {
	//lint:ignore lockedio should not cover the loop body
	for range xs {
		g(1)
	}
}

func g(int) string { return "" }
`)
	// Line 5 (the for header) is the directive's next line: covered by
	// the ordinary line-above rule. The body must stay uncovered.
	if idx.suppressed("lockedio", token.Position{Filename: "x.go", Line: 6}) {
		t.Error("loop body must not inherit the directive")
	}
}

func TestPrintSARIF(t *testing.T) {
	a := &analysis.Analyzer{Name: "demo", Doc: "resources must reach Close"}
	diags := []Diagnostic{{
		Position: token.Position{Filename: "/repo/pkg/file.go", Line: 7, Column: 3},
		Analyzer: "demo",
		Message:  "os.Open result is not closed on every path",
	}}
	var buf strings.Builder
	if err := PrintSARIF(&buf, "/repo", []*analysis.Analyzer{a}, diags); err != nil {
		t.Fatalf("PrintSARIF: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"version": "2.1.0"`,
		`"id": "demo"`,
		`"ruleId": "demo"`,
		`"uri": "pkg/file.go"`,
		`"startLine": 7`,
		`"text": "os.Open result is not closed on every path"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SARIF output missing %s\n%s", want, out)
		}
	}
}

// A directive naming an analyzer that is not registered is reported
// once per unknown name, at the directive; registered names, "all" and
// reasonless comments are not.
func TestUnknownIgnores(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", `package p

func f() {
	//lint:ignore lockedio,retired the lock guards the write
	g()
	//lint:ignore all generated code
	g()
	//lint:ignore gone
	g()
}

func g() {}
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*load.Package{{PkgPath: "p", Files: []*ast.File{f}}}
	diags := UnknownIgnores(fset, pkgs, []*analysis.Analyzer{{Name: "lockedio"}})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	if d := diags[0]; d.Position.Line != 4 || !strings.Contains(d.Message, `"retired"`) {
		t.Errorf("diagnostic = %+v, want line 4 naming \"retired\"", d)
	}
}
