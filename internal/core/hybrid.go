package core

import (
	"pfuzzer/internal/mine"
)

// mineRound bounds one generate-validate-refeed round of a mining
// slice: small enough that accepted candidates re-enter the grammar
// quickly, large enough that batch generation amortizes.
const mineRound = 2048

// The hybrid driver is the two-phase campaign behind Config.MinePhase,
// implementing the tool chain the paper proposes as future work
// (§7.4): "rely on parser-directed fuzzing for initial exploration,
// use a tool to mine the grammar from the resulting sequences, and
// use the mined grammar for generating longer and more complex
// sequences".
//
// The driver alternates two kinds of phase on the same engine loop:
//
//   - exploration: plain parser-directed fuzzing, in bursts of
//     MineCadence executions (default: the whole exploration budget
//     in one burst);
//   - mining: every valid input emitted so far is folded into an
//     incremental token-bigram grammar (mine.Grammar.Add), a batch of
//     deduplicated candidates is generated from it and enqueued as
//     high-priority mined candidates, and the engine validates them
//     through the very same loop and queue.
//
// Accepted candidates feed back twice: into the result (via the
// hybrid emission rule, see recordLength) and into the miner, so the
// grammar grows as the corpus grows. Rejected candidates stay in the
// queue and fall to the ordinary heuristic, where the last-character
// substitution loop repairs near-misses — the two search modes
// compose rather than merely alternate.
//
// The driver is an explicit state machine rather than a nested loop
// so campaigns are step-resumable (Campaign.Step) and snapshotable
// (Snapshot/Restore): every piece of between-phase bookkeeping lives
// on hybridState, phase boundaries are derived from execution counts
// alone, and the grammar is reconstructible from the valid corpus —
// so slicing a campaign into arbitrary Steps, or restoring it in a
// fresh process, reproduces the uninterrupted run exactly.

// Driver stages. hsLoopTop..hsMineRound mirror the §7.4 alternation
// loop; hsFinal is the rounding-remainder sweep, hsDone terminal.
const (
	hsLoopTop = iota
	hsMineEntry
	hsMineRound
	hsFinal
	hsDone
)

// Phase kinds: the bookkeeping owed when an engine phase completes.
const (
	pkExplore = iota
	pkMine
	pkFinal
)

// hybridState is the hybrid driver's between-phase state. Everything
// here except the grammar is serialized by Snapshot; the grammar is
// rebuilt on Restore by replaying MineSeeds and the first fed valids
// through mine.Grammar.Add, which reproduces the incremental
// automaton exactly.
type hybridState struct {
	g         *mine.Grammar
	maxTokens int
	total     int // the campaign's MaxExecs
	cadence   int // exploration executions per burst
	mineSlice int // mining executions per burst

	fed         int // res.Valids already folded into the grammar
	exploreLeft int
	mineLeft    int
	sliceLeft   int // remainder of the current mining slice
	stage       int

	// The engine phase currently running (phaseActive) or about to.
	phaseActive bool
	phaseCap    int  // absolute execution bound of the phase
	phaseMining bool // scoring regime (see the phase fence in score)
	phaseKind   int  // bookkeeping to run when the phase completes
	phaseRound  int  // pkMine: round size to deduct from sliceLeft
}

// ensureHybrid initializes the driver on first use, splitting the
// budget exactly the way the original nested-loop driver did.
func (f *Fuzzer) ensureHybrid() *hybridState {
	if f.hyb != nil {
		return f.hyb
	}
	lex := f.cfg.MineLexer
	if lex == nil {
		lex = mine.SimpleLexer(nil)
	}
	g := mine.NewGrammar(lex)
	g.Seed(f.cfg.MineSeeds)

	maxTokens := f.cfg.MineMaxTokens
	if maxTokens <= 0 {
		maxTokens = 30
	}
	total := f.cfg.MaxExecs
	mineBudget := f.cfg.MineBudget
	if mineBudget <= 0 {
		mineBudget = total / 4
	}
	if mineBudget > total {
		mineBudget = total
	}
	explore := total - mineBudget
	cadence := f.cfg.MineCadence
	if cadence <= 0 {
		// Default to four interleavings: early bursts mine from a
		// small corpus, but their accepted candidates feed back into
		// the grammar, so later bursts generate from a strictly
		// richer automaton. An all-mining configuration (MineBudget
		// >= MaxExecs) leaves cadence at 0; the explore stage below
		// then spends whatever budget mining returns in one phase.
		cadence = (explore + 3) / 4
	}
	// One mining burst per exploration burst, splitting the mining
	// budget evenly; the final sweep spends any remainder.
	bursts := 1
	if cadence > 0 {
		bursts = (explore + cadence - 1) / cadence
	}
	mineSlice := mineBudget / bursts
	if mineSlice < 1 {
		mineSlice = mineBudget
	}

	f.hyb = &hybridState{
		g:           g,
		maxTokens:   maxTokens,
		total:       total,
		cadence:     cadence,
		mineSlice:   mineSlice,
		exploreLeft: explore,
		mineLeft:    mineBudget,
		stage:       hsLoopTop,
	}
	return f.hyb
}

// stepHybrid advances the hybrid campaign by up to n executions: it
// resumes the active engine phase (or asks the driver for the next
// one), runs it to the step bound or the phase bound, and performs
// the between-phase bookkeeping whenever a phase completes. Phase
// boundaries depend only on execution counts, so any slicing of the
// campaign into steps visits the same phases at the same execution
// indices as an uninterrupted run.
func (f *Fuzzer) stepHybrid(n int) {
	h := f.ensureHybrid()
	stepCap := f.res.Execs + n
	if stepCap > f.cfg.MaxExecs {
		stepCap = f.cfg.MaxExecs
	}
	for {
		if !h.phaseActive {
			if !f.advanceHybrid() {
				return
			}
		}
		if f.res.Execs >= h.phaseCap || f.stopCampaign() {
			// The phase is over — completed, zero-length, or aborted
			// by a campaign-global stop (the original driver also ran
			// the post-phase bookkeeping in that case).
			f.finishHybridPhase()
			continue
		}
		if f.res.Execs >= stepCap {
			return // step budget spent; the phase resumes next Step
		}
		cap := h.phaseCap
		if cap > stepCap {
			cap = stepCap
		}
		before := f.res.Execs
		f.setMining(h.phaseMining)
		f.execCap = cap
		f.runSerial()
		if f.res.Execs == before {
			// No progress despite headroom: defensive guard against a
			// spinning engine. The phase stays active for a retry.
			return
		}
	}
}

// advanceHybrid walks the driver's stages until the next engine phase
// is staged (true) or the campaign is finished (false). It mirrors
// the §7.4 alternation: an exploration burst, then mining rounds that
// generate from the grammar and enqueue candidates for validation,
// looping until both budgets are spent, then one final exploration
// sweep for rounding remainders.
func (f *Fuzzer) advanceHybrid() bool {
	h := f.hyb
	for {
		switch h.stage {
		case hsLoopTop:
			if (h.exploreLeft <= 0 && h.mineLeft <= 0) || f.stopCampaign() {
				h.stage = hsFinal
				continue
			}
			if h.exploreLeft > 0 {
				slice := h.cadence
				if slice < 1 || slice > h.exploreLeft {
					// Tail of the budget, or a zero cadence
					// (all-mining configuration whose unminable
					// slices fell through to exploration): spend what
					// is left in one phase, so the driver always
					// makes progress.
					slice = h.exploreLeft
				}
				h.exploreLeft -= slice
				h.stage = hsMineEntry
				f.beginHybridPhase(slice, false, pkExplore)
				return true
			}
			h.stage = hsMineEntry
		case hsMineEntry:
			if h.mineLeft > 0 {
				h.sliceLeft = h.mineSlice
				if h.sliceLeft > h.mineLeft {
					h.sliceLeft = h.mineLeft
				}
				h.mineLeft -= h.sliceLeft
				h.stage = hsMineRound
			} else {
				h.stage = hsLoopTop
			}
		case hsMineRound:
			// Spend the slice in rounds: generate a batch, validate
			// it, fold the newly accepted inputs back into the
			// grammar, regenerate. The feedback loop lives here, so
			// even a single mining phase (MineCadence >= the
			// exploration budget) grows its grammar as it goes.
			if h.sliceLeft <= 0 || f.stopCampaign() {
				h.stage = hsLoopTop
				continue
			}
			round := mineRound
			if round > h.sliceLeft {
				round = h.sliceLeft
			}
			if f.enqueueMined(h.g, h.maxTokens, round) == 0 {
				// Nothing to mine (no valid corpus yet, or the
				// generator is exhausted): return the rest of the
				// slice to exploration so the budget is spent either
				// way.
				h.exploreLeft += h.sliceLeft
				h.sliceLeft = 0
				h.stage = hsLoopTop
				continue
			}
			h.phaseRound = round
			f.beginHybridPhase(round, true, pkMine)
			return true
		case hsFinal:
			// Rounding can leave a few executions unspent; run them
			// out as exploration.
			rest := h.total - f.res.Execs
			h.stage = hsDone
			if !f.stopCampaign() && rest > 0 {
				f.beginHybridPhase(rest, false, pkFinal)
				return true
			}
		case hsDone:
			f.setMining(false)
			return false
		}
	}
}

// beginHybridPhase stages an engine phase of up to slice executions
// under the given scoring regime, clamped to the campaign budget like
// the original driver's runPhase.
func (f *Fuzzer) beginHybridPhase(slice int, mining bool, kind int) {
	h := f.hyb
	cap := f.res.Execs + slice
	if cap > f.cfg.MaxExecs {
		cap = f.cfg.MaxExecs
	}
	h.phaseActive = true
	h.phaseCap = cap
	h.phaseMining = mining
	h.phaseKind = kind
}

// finishHybridPhase runs the bookkeeping owed when the active phase
// completes: newly emitted valids feed the grammar, and mining rounds
// consume their slice.
func (f *Fuzzer) finishHybridPhase() {
	h := f.hyb
	h.phaseActive = false
	switch h.phaseKind {
	case pkExplore:
		h.fed = f.feedGrammar(h.g, h.fed)
	case pkMine:
		h.fed = f.feedGrammar(h.g, h.fed)
		h.sliceLeft -= h.phaseRound
	case pkFinal:
		// Terminal sweep; nothing owed.
	}
}

// setMining toggles the scoring regime and re-scores the queues so no
// stale phase scores survive the boundary (the serial queue's lazy
// re-scoring assumes scores only decrease, which a regime flip
// violates).
func (f *Fuzzer) setMining(active bool) {
	if f.miningActive == active {
		return
	}
	f.miningActive = active
	f.queue.Reorder(f.score)
	f.emit(Event{Kind: EventPhase, Mining: active, Execs: f.res.Execs})
}

// feedGrammar folds valids emitted since the last call into the
// grammar and returns the new high-water mark.
func (f *Fuzzer) feedGrammar(g *mine.Grammar, from int) int {
	for ; from < len(f.res.Valids); from++ {
		g.Add(f.res.Valids[from].Input)
	}
	return from
}

// enqueueMined generates deduplicated candidates from the mined
// grammar and pushes them onto the engine's queue as mined candidates
// (score: see mineScoreBase). The batch is sized to a fraction of the
// phase's execution slice: validating a candidate costs two
// executions (the input and its random extension), and the rest of
// the slice belongs to the repair loop — the substitution children of
// near-miss candidates. It returns how many were enqueued.
func (f *Fuzzer) enqueueMined(g *mine.Grammar, maxTokens, slice int) int {
	if !g.Ready() {
		return 0
	}
	n := slice / 8
	if n < 16 {
		n = 16
	}
	pushed := 0
	for _, gen := range g.GenerateBatch(f.rng, maxTokens, n) {
		if len(gen) > f.cfg.MaxLen {
			continue
		}
		key := string(gen)
		if _, dup := f.seen[key]; dup {
			continue
		}
		f.seen[key] = struct{}{}
		cd := &candidate{input: gen, mineGen: 1}
		f.queue.Push(cd, f.score(cd))
		pushed++
	}
	return pushed
}
