// Package eval is the campaign harness behind the paper's evaluation
// (§5): it runs each tool on each subject under a budget, keeps the
// best of N repetitions (the paper runs every tool three times and
// reports the best run, §5.1), and derives the two metrics the paper
// reports — branch coverage of the valid inputs (Figure 2) and token
// coverage of the valid inputs grouped by token length (Figure 3,
// Tables 2–4, and the §5.3 aggregates).
//
// Every campaign of the matrix runs as a job of the fleet
// orchestrator (internal/campaign). With Budget.Fleet <= 1 the matrix
// is the paper's strictly serial schedule; with more fleet workers,
// campaigns across subjects, tools and repetitions advance
// concurrently over the shared pool. The numbers are identical either
// way: pFuzzer campaigns are slice-invariant on the serial engine,
// and the AFL/KLEE baselines run as single full-budget steps — the
// parity and seed-identity tests in eval_test.go pin both.
package eval

import (
	"fmt"
	"os"
	"sort"
	"time"

	"pfuzzer/internal/afl"
	"pfuzzer/internal/campaign"
	"pfuzzer/internal/core"
	"pfuzzer/internal/klee"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/tokens"
)

// Tool identifies one of the compared test generators.
type Tool string

// The compared tools. PFuzzerMine is the §7.4 tool chain: a pFuzzer
// campaign extended with grammar mining over its valid corpus — its
// exploration is bit-identical to the PFuzzer campaign under the same
// seed, so its token coverage is a superset
// by construction and the column isolates what mining adds.
const (
	PFuzzer     Tool = "pFuzzer"
	AFL         Tool = "AFL"
	KLEE        Tool = "KLEE"
	PFuzzerMine Tool = "pFuzzer+Mine"
)

// Tools lists the tools in the paper's presentation order, extended
// with the §7.4 hybrid column.
var Tools = []Tool{AFL, KLEE, PFuzzer, PFuzzerMine}

// Budget scales the campaigns. The paper gives every tool 48 hours;
// here executions are the budget currency, with AFL given roughly
// three orders of magnitude more executions than pFuzzer, matching
// the throughput ratio the paper reports ("generating 1,000 times
// more inputs than pFuzzer", §5.2).
type Budget struct {
	PFuzzerExecs int
	AFLExecs     int
	KLEEExecs    int
	// MineExecs is the extra execution budget the pFuzzer+Mine
	// campaign spends validating mined candidates on top of its
	// PFuzzerExecs exploration (0 = PFuzzerExecs/4). The paper's
	// §7.4 sketch layers mining on a finished campaign, so the
	// hybrid's exploration keeps the full pFuzzer budget and the
	// Execs column reports the overhead honestly.
	MineExecs int
	Runs      int   // repetitions; the best run is reported
	Seed      int64 // base RNG seed
	Deadline  time.Duration
	// Fleet sets how many campaigns of the matrix advance
	// concurrently over the fleet orchestrator's worker pool (0 or 1
	// = one at a time). It changes no campaign's result: pFuzzer
	// campaigns are slice-invariant and the
	// baselines run as single steps, so a parallel matrix reproduces
	// the serial one bit for bit, only faster.
	Fleet int
	// FleetSlice is the per-step execution slice pFuzzer campaigns
	// are multiplexed at (0 = the fleet default, 4096).
	FleetSlice int
	// Cache sets the pFuzzer campaigns' execution-cache mode
	// (core.Config.Cache). The zero value keeps the adaptive default;
	// the cache is semantically transparent, so every setting produces
	// identical numbers — only the campaign wall-clock and the
	// reported hit rates change.
	Cache core.CacheMode
}

// DefaultBudget approximates the paper's effective execution counts:
// pFuzzer ran through a ~100× instrumentation slowdown for 48 h
// (~10^5 executions) while AFL ran at native speed ("generating 1,000
// times more inputs than pFuzzer", §5.2). The full matrix at this
// budget takes some minutes; use Scale for quicker runs.
func DefaultBudget() Budget {
	return Budget{
		PFuzzerExecs: 100000,
		AFLExecs:     1000000,
		KLEEExecs:    100000,
		Runs:         3,
		Seed:         1,
	}
}

// Scale multiplies all execution budgets by f.
func (b Budget) Scale(f float64) Budget {
	b.PFuzzerExecs = int(float64(b.PFuzzerExecs) * f)
	b.AFLExecs = int(float64(b.AFLExecs) * f)
	b.KLEEExecs = int(float64(b.KLEEExecs) * f)
	b.MineExecs = int(float64(b.MineExecs) * f)
	return b
}

// EffectiveMineExecs returns the mining budget the pFuzzer+Mine
// campaign actually spends: MineExecs, defaulting to a quarter of the
// exploration budget.
func (b Budget) EffectiveMineExecs() int {
	if b.MineExecs > 0 {
		return b.MineExecs
	}
	return b.PFuzzerExecs / 4
}

// SubjectResult is the outcome of one tool on one subject (best run).
type SubjectResult struct {
	Subject     string
	Tool        Tool
	Execs       int
	Valids      [][]byte
	Coverage    map[uint32]bool
	Blocks      int     // subject block count (coverage denominator)
	CoveragePct float64 // Figure 2 value
	TokenCov    tokens.Coverage
	Elapsed     time.Duration

	// CacheHits / CacheMisses are the pFuzzer engines' execution-cache
	// counters (zero for the AFL and KLEE baselines, which have no
	// cache). They are throughput diagnostics: the cache never changes
	// a campaign's corpus or coverage.
	CacheHits   int
	CacheMisses int
}

// CacheHitRate returns the fraction of executions served from the
// execution cache.
func (r *SubjectResult) CacheHitRate() float64 {
	if r.Execs == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.Execs)
}

// Run executes one tool on one subject with the given budget and
// returns the best of budget.Runs repetitions, where "best" is the
// run with the highest valid-input branch coverage (ties broken by
// token coverage, with the earliest repetition kept on full ties).
// With Budget.Fleet > 1 the repetitions advance concurrently.
func Run(entry registry.Entry, tool Tool, budget Budget) SubjectResult {
	cells := groupCells(entry, tool, budget)
	runCells(cells, budget, nil)
	best, _ := foldGroup(cells)
	return best
}

func better(a, b SubjectResult) bool {
	if a.CoveragePct != b.CoveragePct {
		return a.CoveragePct > b.CoveragePct
	}
	return a.TokenCov.FoundCount() > b.TokenCov.FoundCount()
}

// cell is one campaign of the evaluation matrix — one (subject, tool,
// repetition) triple under fleet control. collect distills the
// finished campaign into a SubjectResult.
type cell struct {
	entry   registry.Entry
	tool    Tool
	rep     int
	job     *campaign.Job
	collect func() SubjectResult
}

// newCell builds the campaign for one matrix cell. The tool
// configurations are exactly the paper harness's; only the driving
// moved from blocking Runs to fleet-stepped jobs.
func newCell(entry registry.Entry, tool Tool, budget Budget, rep int) *cell {
	seed := budget.Seed + int64(rep)*7919
	prog := entry.New()
	c := &cell{entry: entry, tool: tool, rep: rep}
	name := fmt.Sprintf("%s/%s/r%d", entry.Name, tool, rep)
	finalize := func(execs int, valids [][]byte, cov map[uint32]bool, elapsed time.Duration) SubjectResult {
		out := SubjectResult{
			Subject: entry.Name, Tool: tool, Blocks: prog.Blocks(),
			Execs: execs, Valids: valids, Coverage: cov, Elapsed: elapsed,
		}
		out.CoveragePct = tokens.Percent(len(cov), out.Blocks)
		found := map[string]bool{}
		for _, in := range valids {
			toks := make([]string, 0, 8)
			for tok := range entry.Tokenize(in) {
				toks = append(toks, tok)
			}
			sort.Strings(toks)
			for _, tok := range toks {
				found[tok] = true
			}
		}
		out.TokenCov = tokens.Cover(entry.Inventory, found)
		return out
	}

	// collectCore distills a pFuzzer-engine campaign, carrying the
	// execution-cache counters along with the paper metrics.
	collectCore := func(f *core.Campaign) func() SubjectResult {
		return func() SubjectResult {
			r := f.Result()
			out := finalize(r.Execs, r.ValidInputs(), r.Coverage, r.Elapsed)
			out.CacheHits = r.CacheHits
			out.CacheMisses = r.CacheMisses
			return out
		}
	}

	switch tool {
	case PFuzzer:
		f := core.NewCampaign(prog, core.Config{
			Seed:     seed,
			MaxExecs: budget.PFuzzerExecs,
			Deadline: budget.Deadline,
			Cache:    budget.Cache,
		})
		// pFuzzer campaigns are slice-invariant, so they ride the
		// fleet's default slice for fine multiplexing.
		c.job = &campaign.Job{Name: name, Runner: f, Slice: budget.FleetSlice}
		c.collect = collectCore(f)
	case PFuzzerMine:
		mineExecs := budget.EffectiveMineExecs()
		f := core.NewCampaign(prog, core.Config{
			Seed: seed,
			// Exploration gets the full pFuzzer budget and runs as
			// one uninterrupted phase (MineCadence >= exploration),
			// so it reproduces the PFuzzer campaign's corpus exactly; the mining phase then spends
			// its own budget on top, with the feedback loop running
			// round by round inside the phase.
			MaxExecs:    budget.PFuzzerExecs + mineExecs,
			MineBudget:  mineExecs,
			MineCadence: budget.PFuzzerExecs,
			MinePhase:   true,
			MineLexer:   entry.Lexer,
			Deadline:    budget.Deadline,
			Cache:       budget.Cache,
		})
		c.job = &campaign.Job{Name: name, Runner: f, Slice: budget.FleetSlice}
		c.collect = collectCore(f)
	case AFL:
		f := afl.New(prog, afl.Config{
			Seed:     seed,
			MaxExecs: budget.AFLExecs,
			Deadline: budget.Deadline,
		})
		// One full-budget step: AFL's mutation stages are not
		// slice-invariant, and a single step keeps the fleet matrix
		// bit-identical to the serial one.
		c.job = &campaign.Job{Name: name, Runner: f, Slice: budget.AFLExecs}
		c.collect = func() SubjectResult {
			r := f.Result()
			return finalize(r.Execs, r.ValidInputs(), r.Coverage, r.Elapsed)
		}
	case KLEE:
		e := klee.New(prog, klee.Config{
			MaxExecs: budget.KLEEExecs,
			Deadline: budget.Deadline,
		})
		c.job = &campaign.Job{Name: name, Runner: e, Slice: budget.KLEEExecs}
		c.collect = func() SubjectResult {
			r := e.Result()
			return finalize(r.Execs, r.ValidInputs(), r.Coverage, r.Elapsed)
		}
	}
	return c
}

// groupCells builds one cell per repetition of a (subject, tool)
// group.
func groupCells(entry registry.Entry, tool Tool, budget Budget) []*cell {
	runs := budget.Runs
	if runs <= 0 {
		runs = 1
	}
	cells := make([]*cell, runs)
	for r := 0; r < runs; r++ {
		cells[r] = newCell(entry, tool, budget, r)
	}
	return cells
}

// runCells drives the cells' campaigns to completion over the fleet.
func runCells(cells []*cell, budget Budget, onProgress func(campaign.Progress)) {
	jobs := make([]*campaign.Job, len(cells))
	for i, c := range cells {
		jobs[i] = c.job
	}
	fl := campaign.Fleet{
		Workers:    budget.Fleet,
		Slice:      budget.FleetSlice,
		OnProgress: onProgress,
	}
	fl.Run(jobs)
}

// foldGroup reduces one group's finished repetitions to the best run
// (repetition order decides full ties, like the serial harness) and
// the group's summed campaign time.
func foldGroup(cells []*cell) (SubjectResult, time.Duration) {
	var best SubjectResult
	var total time.Duration
	for i, c := range cells {
		res := c.collect()
		total += res.Elapsed
		if i == 0 || better(res, best) {
			best = res
		}
	}
	return best, total
}

// Matrix runs every tool on every given subject and reports progress
// on stderr. With Budget.Fleet > 1 the whole matrix — every subject,
// tool and repetition — runs as one fleet over the shared worker
// pool, with a live progress line; the reported numbers are identical
// to the serial schedule's.
func Matrix(entries []registry.Entry, budget Budget) []SubjectResult {
	line := func(r SubjectResult, d time.Duration) {
		fmt.Fprintf(os.Stderr, "  %-6s %-8s execs=%-8d valids=%-5d cov=%5.1f%%  (%v)\n",
			r.Subject, r.Tool, r.Execs, len(r.Valids), r.CoveragePct,
			d.Round(time.Millisecond))
	}

	if budget.Fleet <= 1 {
		// Serial schedule: one (subject, tool) group at a time, its
		// line printed as it completes — the paper's original pacing.
		var out []SubjectResult
		for _, e := range entries {
			for _, tool := range Tools {
				cells := groupCells(e, tool, budget)
				runCells(cells, budget, nil)
				best, took := foldGroup(cells)
				line(best, took)
				out = append(out, best)
			}
		}
		return out
	}

	// Fleet schedule: every campaign of the matrix in one pool.
	var all []*cell
	for _, e := range entries {
		for _, tool := range Tools {
			all = append(all, groupCells(e, tool, budget)...)
		}
	}
	progress := func(p campaign.Progress) {
		if p.JobDone {
			fmt.Fprintf(os.Stderr, "\r  fleet[%d]: %d/%d campaigns done, %d execs, %v   ",
				budget.Fleet, p.Finished, p.Total, p.Execs,
				p.Elapsed.Round(time.Second))
		}
	}
	runCells(all, budget, progress)
	fmt.Fprintln(os.Stderr)

	var out []SubjectResult
	i := 0
	runs := budget.Runs
	if runs <= 0 {
		runs = 1
	}
	for range entries {
		for range Tools {
			best, took := foldGroup(all[i : i+runs])
			line(best, took)
			out = append(out, best)
			i += runs
		}
	}
	return out
}

// Summary is the §5.3 aggregate: token coverage pooled over all
// subjects, split at token length 3.
type Summary struct {
	Tool       Tool
	ShortFound int
	ShortTotal int
	LongFound  int
	LongTotal  int
}

// ShortPct returns the percentage of tokens of length <= 3 found.
func (s Summary) ShortPct() float64 { return tokens.Percent(s.ShortFound, s.ShortTotal) }

// LongPct returns the percentage of tokens of length > 3 found.
func (s Summary) LongPct() float64 { return tokens.Percent(s.LongFound, s.LongTotal) }

// Summarize pools token coverage per tool across subjects.
func Summarize(results []SubjectResult) []Summary {
	byTool := map[Tool]*Summary{}
	var order []Tool
	for _, r := range results {
		s := byTool[r.Tool]
		if s == nil {
			s = &Summary{Tool: r.Tool}
			byTool[r.Tool] = s
			order = append(order, r.Tool)
		}
		sf, st, lf, lt := r.TokenCov.Split(3)
		s.ShortFound += sf
		s.ShortTotal += st
		s.LongFound += lf
		s.LongTotal += lt
	}
	out := make([]Summary, 0, len(order))
	for _, tool := range order {
		out = append(out, *byTool[tool])
	}
	return out
}
