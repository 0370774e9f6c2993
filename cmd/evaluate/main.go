// Command evaluate regenerates every table and figure of the paper's
// evaluation (§5): Table 1 (subjects), Figure 2 (branch coverage per
// subject and tool), Tables 2–4 (token inventories), Figure 3 (tokens
// generated per token length), and the §5.3 token-coverage
// aggregates — plus the pFuzzer+Mine column reproducing the §7.4
// experiment: pFuzzer exploration extended with grammar mining over
// the valid corpus (its exploration is seed-identical to the pFuzzer
// column, so the delta is exactly what mining adds).
//
// Usage:
//
//	evaluate [-scale f] [-seed n] [-runs n] [-parallel n]
//	         [-subjects a,b,c] [-mine-execs n] [-out dir] [-table1]
//	         [-fig2] [-fig3] [-tables] [-summary]
//
// Without selector flags everything is produced. -subjects defaults
// to the paper's five; pass "all" (or an explicit list) to include
// the grammar-zoo subjects urlp, sexpr, httpreq and dotg in the
// matrix — the 11-subject run of EXPERIMENTS.md §8. -scale multiplies
// the execution budgets (1.0 ≈ one minute; the paper ran 48 hours per
// tool and subject, so expect shape, not absolute numbers).
//
// -parallel n runs the whole matrix — every subject, tool and
// repetition — as a fleet of n concurrently advancing campaigns over
// one shared worker pool (internal/campaign), with a live progress
// line on stderr. It changes nothing about the results: campaigns
// are slice-invariant under fleet multiplexing, so the parallel
// matrix is bit-identical to the serial one, just faster on multicore
// hosts.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pfuzzer/internal/core"
	"pfuzzer/internal/eval"
	"pfuzzer/internal/registry"
)

func main() {
	var (
		scale    = flag.Float64("scale", 1.0, "multiply execution budgets")
		seed     = flag.Int64("seed", 1, "base RNG seed")
		runs     = flag.Int("runs", 3, "repetitions per campaign; best run reported")
		cache    = flag.Bool("cache", true, "pFuzzer execution cache (identical numbers either way; changes wall-clock and the hit-rate column only)")
		parallel = flag.Int("parallel", 1, "campaigns advanced concurrently (fleet mode; results identical to serial)")
		mineEx   = flag.Int("mine-execs", 0, "pFuzzer+Mine extra mining executions (0 = pFuzzer budget / 4)")
		subjects = flag.String("subjects", "ini,csv,cjson,tinyc,mjs", `comma-separated subjects, or "all" for every registered subject`)
		outDir   = flag.String("out", "", "directory for CSV results (optional)")
		table1   = flag.Bool("table1", false, "print Table 1 only")
		fig2     = flag.Bool("fig2", false, "print Figure 2 only")
		fig3     = flag.Bool("fig3", false, "print Figure 3 only")
		tables   = flag.Bool("tables", false, "print Tables 2-4 only")
		summary  = flag.Bool("summary", false, "print the §5.3 summary only")
	)
	flag.Parse()

	all := !*table1 && !*fig2 && !*fig3 && !*tables && !*summary

	var entries []registry.Entry
	if strings.TrimSpace(*subjects) == "all" {
		entries = registry.All()
	} else {
		for _, name := range strings.Split(*subjects, ",") {
			e, ok := registry.Get(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "evaluate: unknown subject %q (have %s or \"all\")\n",
					name, strings.Join(registry.Names(), ", "))
				os.Exit(2)
			}
			entries = append(entries, e)
		}
	}

	if all || *table1 {
		fmt.Println(eval.Table1(entries))
	}
	if all || *tables {
		for _, e := range entries {
			switch e.Name {
			case "cjson":
				fmt.Println(eval.TokenTable("Table 2. json tokens per length.", e.Inventory))
			case "tinyc":
				fmt.Println(eval.TokenTable("Table 3. tinyC tokens per length.", e.Inventory))
			case "mjs":
				fmt.Println(eval.TokenTable("Table 4. mjs tokens per length.", e.Inventory))
			}
		}
	}

	needRuns := all || *fig2 || *fig3 || *summary
	if !needRuns {
		return
	}

	budget := eval.DefaultBudget().Scale(*scale)
	budget.Seed = *seed
	budget.Runs = *runs
	budget.Fleet = *parallel
	budget.MineExecs = *mineEx
	if !*cache {
		budget.Cache = core.CacheOff
	}
	mode := "serial schedule"
	if budget.Fleet > 1 {
		mode = fmt.Sprintf("fleet of %d", budget.Fleet)
	}
	// Progress chatter goes to stderr: stdout carries only the report
	// tables, so `evaluate -summary > results.txt` (and the -parallel
	// live progress line, which internal/eval already sends to stderr)
	// stays pipeline-clean.
	fmt.Fprintf(os.Stderr, "Running campaigns (%s): pFuzzer=%d execs, AFL=%d execs, KLEE=%d execs, pFuzzer+Mine=+%d execs, %d run(s) each...\n\n",
		mode, budget.PFuzzerExecs, budget.AFLExecs, budget.KLEEExecs, budget.EffectiveMineExecs(), budget.Runs)

	results := eval.Matrix(entries, budget)

	if all || *fig2 {
		fmt.Println(eval.Figure2(results))
	}
	if all || *fig3 {
		fmt.Println(eval.Figure3(results))
	}
	if all || *summary {
		fmt.Println(eval.SummaryReport(results))
		fmt.Println(eval.ExecsReport(results))
	}

	if *outDir != "" {
		if err := writeCSV(filepath.Join(*outDir, "results.csv"), eval.CSV(results)); err != nil {
			fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "Wrote %s\n", filepath.Join(*outDir, "results.csv"))
	}
}

func writeCSV(path string, rows [][]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}
