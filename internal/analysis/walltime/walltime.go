// Package walltime flags wall-clock reads — time.Now, time.Since,
// time.Sleep — in functions reachable from a package's exported entry
// points, which for the engine packages are the step/score/emit paths.
// Campaign results must be a pure function of (subject, seed, budget);
// a wall-clock read on a result path is how elapsed-time heuristics
// and timing-dependent batching silently break bit-reproducibility.
//
// Timing that is genuinely diagnostic — Result.ExecElapsed — lives
// in declared sinks: functions allowlisted by
// the driver (New's sinks argument, full types.Func names). Everything
// else should route through the stepclock package, whose whole job is
// campaign timekeeping.
package walltime

import (
	"go/ast"
	"go/types"

	"pfuzzer/internal/analysis/pdlint"
)

// flagged lists the time package functions that read or wait on the
// wall clock.
var flagged = map[string]bool{"Now": true, "Since": true, "Sleep": true}

// New returns the walltime analyzer with the given declared sinks:
// fully qualified function names (types.Func.FullName, e.g.
// "(*pfuzzer/internal/core.Fuzzer).execFacts") whose wall-clock reads
// are accepted as diagnostics-only.
func New(sinks ...string) *pdlint.Analyzer {
	sinkSet := map[string]bool{}
	for _, s := range sinks {
		sinkSet[s] = true
	}
	return &pdlint.Analyzer{
		Name: "walltime",
		Doc: "flags time.Now/Since/Sleep reachable from exported entry points, " +
			"outside declared diagnostics sinks",
		Run: func(pass *pdlint.Pass) error { return run(pass, sinkSet) },
	}
}

func run(pass *pdlint.Pass, sinks map[string]bool) error {
	g := pdlint.BuildCallGraph(pass)
	var roots []*types.Func
	for _, fn := range g.Funcs() {
		if ast.IsExported(fn.Name()) || fn.Name() == "main" {
			roots = append(roots, fn)
		}
	}
	reachable := g.Reachable(roots)
	for _, fn := range g.Funcs() {
		if !reachable[fn] || sinks[fn.FullName()] {
			continue
		}
		decl := g.Decl(fn)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := pdlint.CalleeOf(pass.Info, call)
			if callee == nil || callee.Pkg() == nil ||
				callee.Pkg().Path() != "time" || !flagged[callee.Name()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"calls time.%s on a path reachable from exported %s; campaign results "+
					"must not depend on the wall clock — use the stepclock package, or "+
					"declare %s a diagnostics sink in cmd/pdlint",
				callee.Name(), rootName(g, roots, fn), fn.FullName())
			return true
		})
	}
	return nil
}

// rootName names one exported root that reaches fn, for the message.
func rootName(g *pdlint.CallGraph, roots []*types.Func, fn *types.Func) string {
	for _, r := range roots {
		if g.Reachable([]*types.Func{r})[fn] {
			return r.Name()
		}
	}
	return "entry points"
}
