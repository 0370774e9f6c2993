// Package pdlint is the project's static-analysis framework: a small,
// dependency-free re-implementation of the go/analysis vocabulary
// (Analyzer, Pass, Diagnostic, SuggestedFix) plus the package loader,
// suppression-directive handling and call-graph helper the pFuzzer
// analyzers share.
//
// The framework exists because the determinism contract the engine's
// golden tests pin dynamically — seed-identical sequences, cache
// transparency, snapshot/resume exactness — is violated by a
// handful of *syntactic* shapes (map-range order, wall-clock reads in
// result paths, uncounted RNG draws, mixed atomic/plain access,
// untraced subject comparisons) that can be rejected at CI time,
// before any campaign runs. DESIGN.md §12 documents the contract as
// the analyzers enforce it.
//
// It is built on the standard library alone (go/ast, go/types,
// go/importer, `go list -export`) so the repository keeps its
// zero-dependency go.mod.
package pdlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check. Scoping — which packages a
// check applies to — is the driver's business (cmd/pdlint), not the
// analyzer's, so the same analyzer runs unchanged on its testdata.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //pdlint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description `cmd/pdlint -help` prints.
	Doc string
	// Run analyzes one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Report delivers one finding. Suppression directives are applied
	// by the runner after the analyzer returns.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, optionally carrying a machine-applicable
// fix.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	Fixes   []SuggestedFix
}

// A SuggestedFix is one self-contained rewrite that resolves the
// diagnostic; cmd/pdlint -fix applies the first fix of each finding.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces the source in [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// A Finding is one runner-level result: a diagnostic attributed to its
// analyzer and position, with suppression resolved.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
	// Suppressed marks findings silenced by a justified //pdlint:
	// directive; they are kept (and shown under -json) so suppression
	// debt stays visible.
	Suppressed    bool   `json:"suppressed,omitempty"`
	Justification string `json:"justification,omitempty"`

	Fixes []SuggestedFix `json:"-"`
}

// DirectiveAnalyzer is the name findings about malformed //pdlint:
// directives are attributed to. It is a reserved name: directives
// cannot suppress directive findings.
const DirectiveAnalyzer = "directive"

// Run applies analyzers to one loaded package and returns its
// findings, sorted by position. Directives are honoured: a justified
// //pdlint:ignore (or //pdlint:ordered) on or directly above a finding
// marks it Suppressed; malformed directives become findings of the
// reserved "directive" analyzer. known lists additional analyzer names
// directives may legitimately reference — drivers that scope analyzers
// per package pass the full suite here so a suppression for an
// analyzer not running on this package still parses.
func Run(pkg *Package, analyzers []*Analyzer, known ...string) []Finding {
	knownSet := map[string]bool{"maprange": true} // the ordered alias target
	for _, a := range analyzers {
		knownSet[a.Name] = true
	}
	for _, n := range known {
		knownSet[n] = true
	}
	var out []Finding
	dirs := scanDirectives(pkg, knownSet, func(pos token.Pos, msg string) {
		p := pkg.Fset.Position(pos)
		out = append(out, Finding{
			Analyzer: DirectiveAnalyzer, Pos: p,
			File: p.Filename, Line: p.Line, Col: p.Column, Message: msg,
		})
	})
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Syntax,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			p := pkg.Fset.Position(d.Pos)
			f := Finding{
				Analyzer: name, Pos: p,
				File: p.Filename, Line: p.Line, Col: p.Column,
				Message: d.Message, Fixes: d.Fixes,
			}
			if j, ok := dirs.suppresses(name, p); ok {
				f.Suppressed = true
				f.Justification = j
			}
			out = append(out, f)
		}
		if err := a.Run(pass); err != nil {
			p := token.Position{Filename: pkg.PkgPath}
			out = append(out, Finding{
				Analyzer: name, Pos: p, File: pkg.PkgPath,
				Message: fmt.Sprintf("internal error: %v", err),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
