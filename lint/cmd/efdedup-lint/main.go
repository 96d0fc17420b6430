// Command efdedup-lint is the repository's invariant checker: a
// multichecker running the custom analyzers that encode what the
// compiler, go vet, -race and the test suite cannot see — locks never
// held across network I/O, directly or through any call chain
// (lockedio), no mutex acquisition-order cycles anywhere in the module
// (lockorder), errors classifiable at transport boundaries (errclass),
// bounded constant metric names (metricname), contexts in first
// position (ctxfirst), atomic file installs fsynced before and after
// their rename (fsyncrename), wire bodies read through internal/codec
// only (lenguard), and an RPC surface and codec layouts that match the
// checked-in lint/wire.lock schema lockfile (wirelock; regenerate with
// -write-wire-lock or `make wire-lock`).
//
// DESIGN.md §9's analyzer ledger names the smallest mutation each one
// flags and every other check that fails on it.
//
// Usage:
//
//	efdedup-lint [-run name[,name]] [-list] [-json] [-sarif file] [-v]
//	             [-write-wire-lock file] [packages]
//
// Packages default to ./... relative to the working directory. The
// exit status is 0 when no diagnostics fire, 1 when any do, 2 on
// loading failure. -json renders findings as a JSON array instead of
// file:line:col text; -sarif additionally writes a SARIF 2.1.0 log to
// the given file (use "-" for stdout) for code-scanning upload; -v
// reports load/analyze wall time plus per-analyzer wall time on
// stderr; -write-wire-lock regenerates the schema lockfile from the
// loaded packages and exits without running analyzers. Suppress a
// finding with a reasoned directive:
//
//	//lint:ignore lockedio held lock is test-only
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"
	"time"

	"efdedup/lint/analysis"
	"efdedup/lint/analyzers/ctxfirst"
	"efdedup/lint/analyzers/errclass"
	"efdedup/lint/analyzers/fsyncrename"
	"efdedup/lint/analyzers/lenguard"
	"efdedup/lint/analyzers/lockedio"
	"efdedup/lint/analyzers/lockorder"
	"efdedup/lint/analyzers/metricname"
	"efdedup/lint/analyzers/wirelock"
	"efdedup/lint/internal/checker"
	"efdedup/lint/internal/load"
	"efdedup/lint/internal/wire"
)

var all = []*analysis.Analyzer{
	ctxfirst.Analyzer,
	errclass.Analyzer,
	fsyncrename.Analyzer,
	lenguard.Analyzer,
	lockedio.Analyzer,
	lockorder.Analyzer,
	metricname.Analyzer,
	wirelock.Analyzer,
}

func main() {
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "render diagnostics as a JSON array")
	sarifOut := flag.String("sarif", "", "also write a SARIF 2.1.0 log to this file (\"-\" for stdout)")
	verbose := flag.Bool("v", false, "report load/analyze wall time and per-analyzer wall time on stderr")
	writeWireLock := flag.String("write-wire-lock", "", "regenerate the wire-protocol schema lockfile at this path and exit (\"-\" for stdout)")
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *runList != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runList, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "efdedup-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "efdedup-lint: %v\n", err)
		os.Exit(2)
	}
	fset := token.NewFileSet()
	pkgs, stats, err := load.LoadStats(fset, cwd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "efdedup-lint: %v\n", err)
		os.Exit(2)
	}
	if *writeWireLock != "" {
		ix := wire.BuildIndex(fset, pkgs)
		lock := wire.NewLock(ix, wirelock.LintModulePrefix)
		data := lock.Format()
		if *writeWireLock == "-" {
			os.Stdout.Write(data)
			return
		}
		if err := os.WriteFile(*writeWireLock, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "efdedup-lint: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "efdedup-lint: wrote %s (%d methods, %d layouts)\n",
			*writeWireLock, len(lock.Methods), len(lock.Layouts))
		return
	}
	analyzeStart := time.Now()
	diags, timings, err := checker.RunScopedTimed(analyzers, pkgs, pkgs, fset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "efdedup-lint: %v\n", err)
		os.Exit(2)
	}
	diags = append(diags, checker.UnknownIgnores(fset, pkgs, all)...)
	if *verbose {
		fmt.Fprintf(os.Stderr, "efdedup-lint: %d packages: list %v, typecheck %v, analyze %v\n",
			stats.Packages, stats.ListTime.Round(time.Millisecond),
			stats.CheckTime.Round(time.Millisecond),
			time.Since(analyzeStart).Round(time.Millisecond))
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "efdedup-lint:   %-12s %v\n", tm.Analyzer, tm.Elapsed.Round(time.Millisecond))
		}
	}
	if *sarifOut != "" {
		w := os.Stdout
		if *sarifOut != "-" {
			f, err := os.Create(*sarifOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "efdedup-lint: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			w = f
		}
		if err := checker.PrintSARIF(w, cwd, analyzers, diags); err != nil {
			fmt.Fprintf(os.Stderr, "efdedup-lint: %v\n", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		if err := checker.PrintJSON(os.Stdout, cwd, diags); err != nil {
			fmt.Fprintf(os.Stderr, "efdedup-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		checker.Print(os.Stdout, cwd, diags)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
