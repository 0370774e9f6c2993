// Command pdlint runs the project's static-analysis suite: five
// analyzers that enforce the determinism and subject contracts
// DESIGN.md §12 documents, over the package scopes where each contract
// binds. CI runs `go run ./cmd/pdlint ./...` and fails on any
// unsuppressed finding.
//
//	pdlint [-json] [-fix] [packages]
//
// -json emits every finding (suppressed ones included, with their
// justifications) as a JSON array, so suppression debt stays
// reviewable. -fix applies suggested fixes (currently maprange's
// sort-keys rewrite) in place; fixed findings do not fail the run.
// Exit status: 0 clean, 1 unsuppressed findings, 2 load or type errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pfuzzer/internal/analysis/atomicfield"
	"pfuzzer/internal/analysis/enginerand"
	"pfuzzer/internal/analysis/maprange"
	"pfuzzer/internal/analysis/pdlint"
	"pfuzzer/internal/analysis/subjecttrace"
	"pfuzzer/internal/analysis/walltime"
)

// walltimeSinks are the declared diagnostics-only clock readers
// (walltime's escape hatch, DESIGN.md §12): execFacts stamps
// Result.ExecElapsed, which influences no campaign decision or
// fingerprint.
var walltimeSinks = []string{
	"(*pfuzzer/internal/core.Fuzzer).execFacts",
}

// scopes maps each analyzer to the package-path prefixes its contract
// binds. Scoping lives here, not in the analyzers, so the same
// analyzer runs unchanged on its testdata.
//
// engineScope is where campaign results are produced: the determinism
// contract (no order leaks, no wall clocks, no uncounted RNG draws)
// applies in full. The campaign package is deliberately outside
// walltime's scope — fleet progress reporting is wall-clock by nature
// and never feeds back into results — as is stepclock, which is the
// sanctioned timing module.
var engineScope = []string{
	"pfuzzer/internal/core",
	"pfuzzer/internal/mine",
	"pfuzzer/internal/eval",
	"pfuzzer/internal/pcache",
	"pfuzzer/internal/pqueue",
	"pfuzzer/internal/corpus",
	"pfuzzer/internal/subjects",
	"pfuzzer/internal/afl",
	"pfuzzer/internal/klee",
}

var scopes = map[string][]string{
	"maprange":     engineScope,
	"walltime":     engineScope,
	"enginerand":   engineScope,
	"atomicfield":  {"pfuzzer"},
	"subjecttrace": {"pfuzzer/internal/subjects"},
}

func inScope(name, pkgPath string) bool {
	for _, p := range scopes[name] {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

func main() { os.Exit(run(os.Stdout, os.Stderr, os.Args[1:])) }

func run(stdout, stderr *os.File, args []string) int {
	flags := flag.NewFlagSet("pdlint", flag.ExitOnError)
	jsonOut := flags.Bool("json", false, "emit all findings (suppressed included) as JSON")
	fix := flags.Bool("fix", false, "apply suggested fixes in place; fixed findings do not fail the run")
	flags.Parse(args)
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := pdlint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "pdlint:", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(stderr, "pdlint: no packages matched", strings.Join(patterns, " "))
		return 2
	}

	suite := []*pdlint.Analyzer{
		maprange.Analyzer,
		walltime.New(walltimeSinks...),
		enginerand.Analyzer,
		atomicfield.Analyzer,
		subjecttrace.Analyzer,
	}
	names := make([]string, len(suite))
	for i, a := range suite {
		names[i] = a.Name
	}

	code := 0
	var all []pdlint.Finding
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "pdlint: %s: %v\n", pkg.PkgPath, e)
			code = 2
		}
		var active []*pdlint.Analyzer
		for _, a := range suite {
			if inScope(a.Name, pkg.PkgPath) {
				active = append(active, a)
			}
		}
		// Out-of-scope packages still get their directives checked.
		all = append(all, pdlint.Run(pkg, active, names...)...)
	}
	if code != 0 {
		return code
	}

	if *fix {
		fixedFiles, err := pdlint.ApplyFixes(pkgs[0].Fset, all)
		if err != nil {
			fmt.Fprintln(stderr, "pdlint: applying fixes:", err)
			return 2
		}
		files := make([]string, 0, len(fixedFiles))
		for file := range fixedFiles {
			files = append(files, file)
		}
		sort.Strings(files)
		for _, file := range files {
			if err := os.WriteFile(file, fixedFiles[file], 0o644); err != nil {
				fmt.Fprintln(stderr, "pdlint:", err)
				return 2
			}
			fmt.Fprintf(stderr, "pdlint: fixed %s\n", rel(file))
		}
	}

	failing := 0
	suppressed := 0
	for _, f := range all {
		switch {
		case f.Suppressed:
			suppressed++
		case *fix && len(f.Fixes) > 0:
			// Just rewritten; no longer a finding.
		default:
			failing++
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []pdlint.Finding{}
		}
		for i := range all {
			all[i].File = rel(all[i].File)
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(stderr, "pdlint:", err)
			return 2
		}
	} else {
		for _, f := range all {
			if f.Suppressed || (*fix && len(f.Fixes) > 0) {
				continue
			}
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", rel(f.File), f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	fmt.Fprintf(stderr, "pdlint: %d packages, %d findings, %d suppressed\n",
		len(pkgs), failing, suppressed)
	if failing > 0 {
		return 1
	}
	return 0
}

// rel shortens an absolute file name to a working-directory-relative
// one for display.
func rel(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	if r, err := filepath.Rel(wd, path); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return path
}
