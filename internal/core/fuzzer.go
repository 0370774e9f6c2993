// Package core implements parser-directed fuzzing: Algorithm 1 of
// "Parser-Directed Fuzzing" (Mathis et al., PLDI 2019).
//
// The fuzzer feeds a candidate input to the instrumented subject and
// observes the comparisons made against each input character. On
// rejection it substitutes the compared characters with the values
// they were compared against; when the parser attempts to read past
// the end of the input, it appends a random character. Candidate
// inputs wait in a priority queue ordered by a heuristic over the
// parent's new branch coverage, the input length, the replacement
// length, the parser stack depth, the number of substitutions on the
// search path, and path novelty (§3.1–3.2). Valid inputs that cover
// new code are emitted; by construction every emitted input is
// accepted by the parser.
//
// The engine is one serial loop (serial.go), bit-for-bit deterministic
// under a fixed Seed, that reproduces the paper's Algorithm 1 exactly
// (DESIGN.md §5). Parallelism lives across campaigns, not inside one:
// the fleet orchestrator (internal/campaign) steps many campaigns at
// once.
//
// Config.MinePhase layers the paper's §7.4 proposal on that loop
// (hybrid.go, DESIGN.md §7): grammar mining over the valid corpus,
// generation of longer candidates, validation through the same loop,
// and feedback of accepted inputs into the miner.
package core

import (
	"math"
	"math/rand"
	"time"

	"pfuzzer/internal/mine"
	"pfuzzer/internal/pcache"
	"pfuzzer/internal/pqueue"
	"pfuzzer/internal/stepclock"
	"pfuzzer/internal/subject"
	"pfuzzer/internal/trace"
)

// DefaultCharset is the alphabet used for random extensions: printable
// ASCII plus newline and tab, matching the paper's "random character
// from the set of all ASCII characters".
func DefaultCharset() []byte {
	cs := make([]byte, 0, 98)
	for b := byte(0x20); b < 0x7f; b++ {
		cs = append(cs, b)
	}
	return append(cs, '\n', '\t')
}

// Config controls a fuzzing campaign.
type Config struct {
	// Seed seeds the random number generator.
	Seed int64
	// MaxExecs bounds the number of subject executions (0 = 100000).
	MaxExecs int
	// MaxValids stops the campaign after this many valid inputs
	// (0 = unlimited).
	MaxValids int
	// MaxLen discards candidate inputs longer than this (0 = 512).
	MaxLen int
	// MaxQueue bounds the priority queue (0 = 50000).
	MaxQueue int
	// Charset is the random-extension alphabet (nil = DefaultCharset).
	Charset []byte
	// Deadline bounds the campaign's active running time (0 = none):
	// time spent inside Run or Campaign.Step, excluding time parked
	// between Steps — so a campaign multiplexed by the fleet
	// orchestrator is not cut short by queue wait, and a restored
	// campaign resumes its deadline clock where the snapshot left it.
	Deadline time.Duration
	// Events, if non-nil, receives the campaign's typed event stream:
	// every emitted valid input (EventValid), every queue pop
	// (EventPop), every hybrid phase switch (EventPhase) and the
	// cache counters once per Step (EventCache). Events are delivered
	// from the goroutine that steps the campaign, so the sink needs no
	// synchronization of its own.
	Events func(Event)

	// Cache controls the prefix-decided execution cache
	// (internal/pcache, DESIGN.md §10). An execution whose outcome is
	// already memoised — because the identical input ran before, or a
	// previous run was rejected on a deciding prefix the input shares
	// (trace.Record.DecidedPrefix) — skips subject.ExecuteInto and
	// replays the memoised facts. The cache is semantically
	// transparent: cached executions still count against the budget
	// and fire events, so the emitted corpus is bit-identical with the
	// cache on, off or auto (the conformance kit pins this per
	// subject); the win is wall-clock. Hit/miss counts surface on
	// Result and through EventCache.
	//
	// The default CacheAuto enables the cache adaptively: campaigns
	// whose observed hit rate cannot pay for the lookups retire it at
	// deterministic execution milestones (see maybeRetireCache).
	// CacheOn keeps it for the whole campaign; CacheOff disables it.
	Cache CacheMode

	// MinePhase enables the hybrid two-phase campaign (DESIGN.md §7,
	// the paper's §7.4 proposal): after parser-directed exploration —
	// or interleaved with it on the MineCadence — the engine mines a
	// token-bigram grammar from the emitted valid corpus, generates
	// batches of longer candidates, validates them through the same
	// loop, and feeds accepted inputs back into both the result and
	// the miner. With MinePhase set, accepted inputs strictly longer
	// than any valid so far are emitted even without new block
	// coverage: depth, not coverage novelty, is what the mining phase
	// exists to buy.
	MinePhase bool
	// MineBudget is the number of executions reserved for validating
	// mined candidates (0 = MaxExecs/4). The remainder of MaxExecs
	// drives parser-directed exploration.
	MineBudget int
	// MineMaxTokens bounds the token length of generated candidates
	// (0 = 30).
	MineMaxTokens int
	// MineCadence is the number of exploration executions between
	// mining bursts (0 = a quarter of the exploration budget, i.e.
	// four interleavings). Smaller cadences interleave the phases
	// more finely, growing the grammar — and regenerating from it —
	// as the corpus grows; MineCadence >= the exploration budget
	// degenerates to one mining phase after all exploration.
	MineCadence int
	// MineLexer tokenizes inputs for the miner (nil = a keywordless
	// mine.SimpleLexer). registry.Entry.Lexer supplies a per-subject
	// lexer so every subject can be mined.
	MineLexer mine.Lexer
	// MineSeeds pre-seeds the miner's grammar with an external valid
	// corpus before the campaign's own valids arrive — the §7.4 chain
	// across process restarts: a pFuzzer+Mine run can start from the
	// corpus a previous pFuzzer campaign saved (see internal/corpus).
	// Ignored without MinePhase.
	MineSeeds [][]byte

	// Ablation switches; all false reproduces the paper's heuristic.
	// They exist for the ablation benchmarks listed in DESIGN.md.
	NoLengthTerm       bool // drop the -len(input) term
	NoReplacementBonus bool // drop the +2*len(replacement) term
	NoStackTerm        bool // drop the -avgStackSize term
	NoParentsTerm      bool // drop the parent-count term
	NoPathNovelty      bool // drop the path-novelty re-ranking
	CoverageOnly       bool // coverage term only (degenerates to depth-first)
	BFS                bool // breadth-first: shortest inputs first
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxExecs == 0 {
		out.MaxExecs = 100000
	}
	if out.MaxLen == 0 {
		out.MaxLen = 512
	}
	if out.MaxQueue == 0 {
		out.MaxQueue = 50000
	}
	if len(out.Charset) == 0 {
		out.Charset = DefaultCharset()
	}
	return out
}

// Valid is one emitted input: accepted by the parser and covering new
// code at the time it was found.
type Valid struct {
	Input     []byte
	NewBlocks int // blocks this input covered first
	Exec      int // execution index at which it was found
}

// Result summarizes a campaign.
type Result struct {
	Valids   []Valid
	Execs    int
	Coverage map[uint32]bool // union block coverage of the valid inputs
	Elapsed  time.Duration

	// ExecElapsed is the cumulative wall time spent inside the
	// execution layer: subject runs, fact distillation, and — when
	// enabled — the prefix-decided cache's lookups and inserts. It
	// isolates the layer Config.Cache optimizes from the engine's
	// search bookkeeping (queue, scoring, dedup), which perfbench
	// reports as the exec-layer and search shares of each execution.
	ExecElapsed time.Duration

	// CacheHits and CacheMisses count executions served from the
	// prefix-decided cache versus actually run (Config.Cache). With
	// the cache enabled every execution is one or the other — an
	// execution after adaptive retirement runs the subject for real,
	// so it counts as a miss — hence CacheHits + CacheMisses == Execs
	// at every point of the campaign; with CacheOff both stay 0. They
	// are diagnostics, not campaign state: Fingerprint ignores them,
	// and a restored campaign resumes the counters while rebuilding
	// the cache contents lazily. CacheRetired records that the
	// CacheAuto rule dropped the cache mid-campaign.
	CacheHits    int
	CacheMisses  int
	CacheRetired bool
}

// CacheHitRate returns the fraction of executions served from the
// cache, or 0 before any execution.
func (r *Result) CacheHitRate() float64 {
	if r.Execs == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.Execs)
}

// ValidInputs returns the raw emitted inputs.
func (r *Result) ValidInputs() [][]byte {
	out := make([][]byte, len(r.Valids))
	for i := range r.Valids {
		out[i] = r.Valids[i].Input
	}
	return out
}

// candidate is a queued input together with the parent-run facts the
// heuristic needs, stored so scores can be recomputed without
// re-running the subject (§3.2).
type candidate struct {
	input       []byte
	replacement []byte       // the substituted value ("c" in Algorithm 1)
	parent      *parentFacts // parent-run facts, shared by all siblings (nil: restart or mined input)
	parents     int          // substitutions on the search path so far
	retries     int          // times this input was already extended
	mineGen     int          // mined lineage: 0 = ordinary, 1 = generated from the grammar, k = repair descendant k-1 substitutions later
}

// parentFacts is the parent-run data every child derived from one
// execution shares, plus two shortcuts for the score terms that
// depend only on the parent: a generation-stamped memo of the
// new-coverage count (constant between emitted valids, stamped with
// vbrGen) and a direct pointer into the path-frequency table, so the
// path-novelty penalty is a pointer dereference instead of a map
// probe. Sharing one struct across siblings turns the engine's
// hottest loop — re-scoring the whole queue, where every candidate
// used to re-probe the coverage set and the path table — into one
// probe pass per parent; the computed values are bit-for-bit the ones
// the per-candidate recomputation produced, so pop order and the
// golden sequences are unchanged.
type parentFacts struct {
	blks  []uint32 // parent's trimmed covered blocks
	stack float64  // parent's avg stack depth at last two comparisons
	path  uint64   // parent's path hash

	covGen uint64 // vbrGen the coverage memo was computed at
	covNew int    // memo: blocks in blks not yet covered by valids
	cnt    *int   // path's live execution counter (lazy; see pathCnt)
}

// Fuzzer is one parser-directed fuzzing campaign over a subject.
type Fuzzer struct {
	cfg          Config
	prog         subject.Program
	rng          *rand.Rand
	cs           *countedSource             // rng's draw-counting source (snapshot/restore)
	sink         trace.Sink                 // the engine's reusable trace buffers
	cache        *pcache.Cache[cachedFacts] // prefix-decided execution cache (nil = off)
	cacheCheckAt int                        // next adaptive-retirement milestone (maybeRetireCache)
	hint         extHint                    // candidate→extension lookup carry-over (cachedExec)
	rfScratch    runFacts                   // trajectory's reusable distillation struct (cachedExec)

	vBr    blockSet // blocks covered by valid inputs
	vbrGen uint64   // bumped on every emitted valid (parentFacts.covGen)

	queue     pqueue.Queue[*candidate]
	seen      map[string]struct{} // inputs ever enqueued or run
	pathSeen  map[uint64]*int     // executions per path hash (pointer-valued so parentFacts can alias the counters)
	validSeen map[string]struct{}

	res        Result
	clock      stepclock.Clock // active stepping time (Result.Elapsed, Deadline)
	curParents int             // substitution depth of the input being processed
	curMineGen int             // mined lineage of the input being processed

	// Campaign lifecycle. A Fuzzer runs exactly one campaign: Run
	// panics on reuse (ran). Internally a campaign is one or more
	// *phases* — the hybrid engine alternates exploration and mining
	// bursts — so the engine is resumable: began marks one-time
	// initialization, execCap is the current phase's execution bound,
	// and the loop's cursor survives between phases.
	ran          bool
	began        bool
	execCap      int
	longestValid int          // length of the longest emitted valid input
	miningActive bool         // current phase is a mining burst (hybrid only)
	hyb          *hybridState // hybrid phase driver (nil until first hybrid step)

	// The loop's resumable cursor.
	sStarted  bool
	sInput    []byte     // input to process next
	sExt      []byte     // its random extension, drawn at pop time
	sCur      *candidate // candidate sInput was popped as (nil = restart)
	sCurScore float64    // score sCur was popped at (carried by snapshots)
}

// New prepares a fuzzer for prog. A Fuzzer is single-campaign: Run
// may be called exactly once; construct a new Fuzzer (they are cheap)
// for every campaign rather than reusing one — a second Run would
// silently continue on the first campaign's dedup sets, coverage and
// execution counts, so it panics instead.
func New(prog subject.Program, cfg Config) *Fuzzer {
	c := cfg.withDefaults()
	cs := &countedSource{src: rand.NewSource(c.Seed)}
	return &Fuzzer{
		cfg:       c,
		prog:      prog,
		rng:       rand.New(cs),
		cs:        cs,
		cache:     newCache(&c),
		vbrGen:    1, // start past the memo zero value
		seen:      make(map[string]struct{}),
		pathSeen:  make(map[uint64]*int),
		validSeen: make(map[string]struct{}),
	}
}

// Run executes the campaign and returns its result. With
// Config.MinePhase the hybrid phase driver (hybrid.go) alternates
// parser-directed exploration with grammar-mining bursts.
//
// Run is implemented as one maximal Step of the campaign's engine;
// the step-driven surface behind it is the Campaign type
// (campaign.go), which the fleet orchestrator and the persistence
// layer consume. Stepping in smaller slices is execution-equivalent,
// so Run and any slicing of it emit the golden sequences
// (golden_test.go).
//
// Run panics if called a second time: a Fuzzer holds one campaign's
// state (dedup sets, coverage, execution counts), and continuing on
// it would double-count executions. Create a new Fuzzer with New.
func (f *Fuzzer) Run() *Result {
	if f.ran {
		panic("core: Fuzzer.Run called twice; a Fuzzer is single-campaign — create a new one with New")
	}
	f.ran = true
	for {
		spent, more := f.step(f.cfg.MaxExecs)
		if !more || spent == 0 {
			break
		}
	}
	return f.finish()
}

// step advances the campaign by up to n executions and reports how
// many were actually spent and whether the campaign can still make
// progress. It is the one engine entry point: Run, Campaign.Step and
// the hybrid phase driver all go through it, so plain and hybrid
// campaigns expose identical resumable behaviour.
func (f *Fuzzer) step(n int) (spent int, more bool) {
	if n <= 0 || f.campaignOver() {
		return 0, !f.campaignOver()
	}
	f.clock.StepBegin()
	f.begin()
	before := f.res.Execs
	if f.cfg.MinePhase {
		f.stepHybrid(n)
	} else {
		cap := f.res.Execs + n
		if cap > f.cfg.MaxExecs {
			cap = f.cfg.MaxExecs
		}
		if f.res.Execs < cap {
			f.execCap = cap
			f.runSerial()
		}
	}
	f.res.Elapsed = f.clock.StepEnd()
	if f.cache != nil {
		// One cumulative cache report per step: monotone by
		// construction, and the final report's hits+misses equals the
		// campaign's execution count (cache_test.go pins both).
		f.emit(Event{Kind: EventCache, Execs: f.res.Execs,
			Hits: f.res.CacheHits, Misses: f.res.CacheMisses})
	}
	return f.res.Execs - before, !f.campaignOver()
}

// campaignOver reports whether the campaign has nothing left to do:
// the global budget is spent (stopCampaign), or the hybrid driver has
// run through its final phase.
func (f *Fuzzer) campaignOver() bool {
	if f.stopCampaign() {
		return true
	}
	if f.cfg.MinePhase && f.hyb != nil && f.hyb.stage == hsDone && !f.hyb.phaseActive {
		return true
	}
	return false
}

// begin performs the once-per-campaign initialization; subsequent
// phases resume on the same state.
func (f *Fuzzer) begin() {
	if f.began {
		return
	}
	f.began = true
	f.res.Coverage = make(map[uint32]bool)
}

// finish stamps the elapsed time and returns the result. Elapsed is
// active stepping time, not wall clock: a campaign multiplexed by the
// fleet orchestrator spends most of its wall time parked between
// Steps, and counting that would misattribute fleet wait to the
// engine.
func (f *Fuzzer) finish() *Result {
	f.res.Elapsed = f.clock.Active()
	return &f.res
}

// done reports whether the current phase is over. execCap bounds this
// phase's executions; MaxValids and Deadline are campaign-global.
func (f *Fuzzer) done() bool {
	if f.res.Execs >= f.execCap {
		return true
	}
	if f.cfg.MaxValids > 0 && len(f.res.Valids) >= f.cfg.MaxValids {
		return true
	}
	if f.deadlineHit() {
		return true
	}
	return false
}

// stopCampaign reports whether the whole campaign (not just the
// current phase) is out of budget — the hybrid driver's loop guard.
func (f *Fuzzer) stopCampaign() bool {
	if f.res.Execs >= f.cfg.MaxExecs {
		return true
	}
	if f.cfg.MaxValids > 0 && len(f.res.Valids) >= f.cfg.MaxValids {
		return true
	}
	if f.deadlineHit() {
		return true
	}
	return false
}

// deadlineHit reports whether the Deadline's budget of active
// campaign time is spent — completed Steps (which a restored snapshot
// carries over) plus the running Step's share. Time parked between
// Steps — fleet queue wait — does not count, and before the first
// step nothing has accrued, so the deadline never reads as expired on
// a fresh campaign (step consults stopCampaign before begin runs).
func (f *Fuzzer) deadlineHit() bool {
	return f.clock.Exceeded(f.cfg.Deadline)
}

func (f *Fuzzer) randChar() byte {
	return f.cfg.Charset[f.rng.Intn(len(f.cfg.Charset))]
}

// byteLits holds one stable single-byte literal per byte value, so
// replacement picks for range and set comparisons need no allocation;
// the slices are read-only by convention (candidates alias them for
// the life of the campaign).
var byteLits = func() [256][1]byte {
	var t [256][1]byte
	for i := range t {
		t[i][0] = byte(i)
	}
	return t
}()

// pick selects the replacement value to try for one comparison — the
// full literal for equality and strcmp comparisons, one random member
// different from the actual value for ranges and sets — or ok == false
// when the comparison yields no substitution. Every comparison kind
// produces at most one candidate, so the return is a single slice, not
// a list: the old [][]byte wrapper allocated a header array per
// comparison per deriving run.
func (f *Fuzzer) pick(c *trace.Comparison) (_ []byte, ok bool) {
	switch c.Kind {
	case trace.CmpCharEq, trace.CmpStrEq:
		return c.Expected, true
	case trace.CmpCharRange:
		if len(c.Expected) != 2 || c.Expected[0] > c.Expected[1] {
			return nil, false
		}
		lo, hi := int(c.Expected[0]), int(c.Expected[1])
		b := byte(lo + f.rng.Intn(hi-lo+1))
		if len(c.Actual) == 1 && b == c.Actual[0] && hi > lo {
			b = byte(lo + (int(b)-lo+1)%(hi-lo+1))
		}
		return byteLits[b][:], true
	case trace.CmpCharSet:
		if len(c.Expected) == 0 {
			return nil, false
		}
		b := c.Expected[f.rng.Intn(len(c.Expected))]
		if len(c.Actual) == 1 && b == c.Actual[0] && len(c.Expected) > 1 {
			// Try once more for a different member.
			b = c.Expected[f.rng.Intn(len(c.Expected))]
		}
		return byteLits[b][:], true
	}
	return nil, false
}

// substitute replaces the span of comparison c in input with cand.
func substitute(input []byte, c *trace.Comparison, cand []byte) []byte {
	s, e := c.Index, c.Last
	if s < 0 || s > len(input) {
		return append(append([]byte{}, input...), cand...)
	}
	if e >= len(input) {
		e = len(input) - 1
	}
	out := make([]byte, 0, s+len(cand)+len(input)-e-1)
	out = append(out, input[:s]...)
	out = append(out, cand...)
	out = append(out, input[e+1:]...)
	return out
}

// Mined-candidate scoring: a fresh mined candidate beats any
// substitution child (whose scores are small: coverage counts minus
// length-scale penalties). The base halves per lineage generation —
// repair descendants of a mined near-miss stay prioritized over the
// exploration frontier, or the repair loop could never touch the
// long inputs mining produces (their length penalty buries them) —
// and the steep retry decay drops any one candidate back into the
// pack after a few fruitless extensions.
const (
	mineScoreBase  = 4096.0
	mineRetryDecay = 1024.0
)

// mineScore is the queue priority of a candidate with mined lineage.
func mineScore(c *candidate) float64 {
	base := mineScoreBase
	for g := 1; g < c.mineGen && base >= 1; g++ {
		base /= 2
	}
	return base - mineRetryDecay*float64(c.retries) - float64(len(c.input))
}

// pathCnt returns the live execution counter for path hash h,
// creating a zero one on first use. Handing the pointer to
// parentFacts lets score read the current count without a map probe;
// bumps through bumpPath and reads through the pointer always see the
// same counter.
func (f *Fuzzer) pathCnt(h uint64) *int {
	p := f.pathSeen[h]
	if p == nil {
		p = new(int)
		f.pathSeen[h] = p
	}
	return p
}

// bumpPath counts one execution of path hash h.
func (f *Fuzzer) bumpPath(h uint64) { *f.pathCnt(h)++ }

// pathPenaltyTab precomputes min(log2(1+n), 8) for small path counts.
// score calls it once per candidate per re-scoring pass — the single
// hottest arithmetic in the engine's Reorder — and the penalty
// saturates at 8 from n = 255 on (log2(256) == 8), so a 255-entry
// table replays math.Log2 bit for bit.
var pathPenaltyTab = func() [255]float64 {
	var t [255]float64
	for n := range t {
		t[n] = min(math.Log2(1+float64(n)), 8)
	}
	return t
}()

// pathPenalty returns min(log2(1+n), 8) via the precomputed table.
func pathPenalty(n int) float64 {
	if n >= 0 && n < len(pathPenaltyTab) {
		return pathPenaltyTab[n]
	}
	return 8
}

// score computes the queue priority of a candidate (Algorithm 1,
// heur, with the parent-count sign following the paper's prose: fewer
// parents rank higher).
func (f *Fuzzer) score(c *candidate) float64 {
	if c.mineGen > 0 && f.miningActive {
		// Phase fence: the mined boost applies only inside a mining
		// burst. During exploration bursts, mined-lineage candidates
		// fall through to the ordinary heuristic below (generated
		// candidates carry no parent facts, so their length penalty
		// buries them) instead of starving the exploration frontier.
		return mineScore(c)
	}
	if f.cfg.BFS {
		return -float64(len(c.input))
	}
	p := c.parent
	newBlocks := 0
	if p != nil {
		if p.covGen != f.vbrGen {
			n := 0
			for _, id := range p.blks {
				if !f.vBr.has(id) {
					n++
				}
			}
			p.covNew = n
			p.covGen = f.vbrGen
		}
		newBlocks = p.covNew
	}
	s := float64(newBlocks)
	if f.cfg.CoverageOnly {
		return s
	}
	if !f.cfg.NoLengthTerm {
		s -= float64(len(c.input))
	}
	if !f.cfg.NoReplacementBonus {
		s += 2 * float64(len(c.replacement))
	}
	if !f.cfg.NoStackTerm && p != nil {
		s -= p.stack
	}
	if !f.cfg.NoParentsTerm {
		s -= float64(c.parents)
	}
	if !f.cfg.NoPathNovelty {
		// Rank down inputs from frequently-seen paths (§3.2). The
		// penalty is logarithmic and capped: it breaks ties in favour
		// of novel paths without drowning the replacement bonus that
		// pulls keyword substitutions forward — children of hot paths
		// (every identifier run shares one path) must stay reachable.
		if p != nil {
			if p.cnt == nil {
				p.cnt = f.pathCnt(p.path)
			}
			s -= pathPenalty(*p.cnt)
		} else if pz := f.pathSeen[0]; pz != nil {
			// Restart and mined candidates carry no parent path; the
			// pre-shortcut heuristic looked up hash 0, which no real
			// path produces, so the penalty is the zero-count one.
			s -= pathPenalty(*pz)
		}
	}
	s -= 2 * float64(c.retries)
	return s
}
