package core

import (
	"pfuzzer/internal/pcache"
	"pfuzzer/internal/subject"
	"pfuzzer/internal/trace"
)

// CacheMode selects the prefix-decided execution cache behaviour
// (Config.Cache).
type CacheMode int

const (
	// CacheAuto — the zero value — enables the cache adaptively.
	CacheAuto CacheMode = iota
	// CacheOn enables the cache explicitly (it only differs from
	// CacheAuto as a Restore override, where CacheAuto means "keep
	// what the snapshot says").
	CacheOn
	// CacheOff disables the cache.
	CacheOff
)

// cacheEnabled reports whether the campaign should memoise executions.
func (c *Config) cacheEnabled() bool { return c.Cache != CacheOff }

// Adaptive retirement (CacheAuto): the cache's benefit depends on how
// often the search re-executes decided inputs, which varies by subject
// — flat, early-saturating grammars reach near-total hit rates while
// wide open grammars execute mostly fresh inputs, where lookups and
// inserts are pure overhead. Because the cache is semantically
// transparent, the engine is free to drop it mid-campaign: starting at
// cacheProbation executions (and re-checking a factor of 4 later each
// time, so a late-blooming campaign still gets re-judged), a hit rate
// below cacheMinHitPct retires the cache. The decision is a
// deterministic function of the campaign, and the emitted corpus is
// unchanged either way; executions after retirement count as misses
// (they run the subject for real).
const (
	cacheProbation  = 8192
	cacheMinHitPct  = 25
	cacheCheckScale = 4
)

// maybeRetireCache applies the adaptive rule at the configured
// execution milestones.
func (f *Fuzzer) maybeRetireCache() {
	if f.cache == nil || f.cfg.Cache == CacheOn || f.cache.Retired() {
		return
	}
	if f.cacheCheckAt == 0 {
		f.cacheCheckAt = cacheProbation
	}
	if f.res.Execs < f.cacheCheckAt {
		return
	}
	f.cacheCheckAt *= cacheCheckScale
	if f.res.CacheHits*100 < f.res.Execs*cacheMinHitPct {
		f.cache.Retire()
		f.res.CacheRetired = true
	}
}

// cachedFacts is the memoised outcome of one subject execution,
// stored by value inside the cache table. Only the scalar verdict is
// stored eagerly; the derived facts children are built from (trimmed
// blocks, final-index comparisons, stack average) are materialized
// lazily, because the most common execution by far — a rejected run —
// is mostly never derived from, and eagerly retaining comparison
// slices for every executed input is pure GC ballast. A rejected
// entry starts slim (derived == nil); the first lookup that needs the
// derived half re-executes the input once and upgrades the entry in
// place, so the expensive distillation is paid at most once per entry
// and only for entries the search actually revisits. Accepted entries
// are always stored full: every accepted hit needs the block set.
type cachedFacts struct {
	accepted bool
	pathHash uint64
	derived  *derivedFacts
}

// derivedFacts is the deriving-run half of the memo: what addChildren
// and emitValid consume. All slices are owned by the entry (factsOf
// copies them out of the sink-backed record), so parent facts may
// alias them freely.
type derivedFacts struct {
	stack     float64
	blocks    []uint32
	trimmed   []uint32
	lastComps []trace.Comparison
}

// runFactsInto materializes the memoised outcome for input into rf,
// reproducing exactly what a real execution of input would have
// distilled. rf is the trajectory's reusable scratch: the engine never
// retains a *runFacts past the loop iteration that produced it (the
// slices a candidate or cache entry keeps are owned by the entry, not
// the struct), so one scratch per Fuzzer replaces a per-hit
// allocation.
func (df cachedFacts) runFactsInto(rf *runFacts, input []byte) *runFacts {
	*rf = runFacts{input: input, accepted: df.accepted, pathHash: df.pathHash}
	if d := df.derived; d != nil {
		rf.stack = d.stack
		rf.blocks = d.blocks
		rf.trimmed = d.trimmed
		rf.lastComps = d.lastComps
	}
	return rf
}

// derivedOf captures rf's deriving-run half for memoisation.
func derivedOf(rf *runFacts) *derivedFacts {
	return &derivedFacts{stack: rf.stack, blocks: rf.blocks, trimmed: rf.trimmed, lastComps: rf.lastComps}
}

// newCache builds a campaign's execution cache (nil when disabled).
func newCache(cfg *Config) *pcache.Cache[cachedFacts] {
	if !cfg.cacheEnabled() {
		return nil
	}
	return pcache.New[cachedFacts](0)
}

// maxDecidedPrefix bounds what the prefix tier admits: a deciding
// prefix longer than this is effectively input-specific — the odds of
// a future candidate sharing hundreds of leading bytes but having been
// generated independently are negligible — so such runs are admitted
// as exact entries instead, which serves the re-pop hits they do get
// without growing the per-lookup probe range.
const maxDecidedPrefix = 64

// cachedExec is the engine's one execute-with-memoisation path:
// consult the cache, and on a miss execute input through sink and
// memoise the distilled facts. hit reports whether subject.ExecuteInto
// was skipped — the executions-per-second win the cache exists for.
//
// The cache is semantically transparent: a hit returns facts
// bit-identical to what the real run would have produced (the
// conformance kit's cache-transparency property pins this per
// subject), so campaigns with the cache on or off emit the same corpus
// at the same execution indices, only faster. A lookup that finds a
// slim entry when the caller needs derived facts counts as a miss:
// the input runs for real and the entry upgrades in place.
//
// A retired cache is treated as no cache: every lookup would miss and
// every admission would be dropped, so the run skips the lookup, the
// deciding-prefix scan and the derived-facts copies, and distills into
// the scratch's reused arrays. The caller still counts the run as a
// miss.
func cachedExec(cache *pcache.Cache[cachedFacts], prog subject.Program,
	input []byte, deriving bool, sink *trace.Sink,
	scratch *distillScratch) (rf *runFacts, hit bool) {
	if cache == nil || cache.Retired() {
		rec := subject.ExecuteInto(prog, input, traceOpts(), sink)
		return factsOfInto(&scratch.rf, rec, deriving, scratch), false
	}
	if e, ok := cache.Get(input); ok {
		// Slim entries are always rejections, whose verdict and path
		// hash are all a non-deriving caller consumes.
		if e.derived != nil || !deriving {
			return e.runFactsInto(&scratch.rf, input), true
		}
		// A deriving caller upgrades the slim entry in place. A slim
		// entry is always input's own exact entry: prefix entries are
		// stored full, and a prefix entry would have answered first.
		rec := subject.ExecuteInto(prog, input, traceOpts(), sink)
		rf = factsOfInto(&scratch.rf, rec, true, nil)
		cache.SetExact(input, cachedFacts{accepted: rf.accepted, pathHash: rf.pathHash, derived: derivedOf(rf)})
		return rf, false
	}
	rec := subject.ExecuteInto(prog, input, traceOpts(), sink)
	d, decided := rec.DecidedPrefix()
	decided = decided && d <= maxDecidedPrefix
	// Distill the derived half eagerly when the caller needs it anyway
	// (deriving) or when the entry is a deciding prefix: the engine
	// runs every input's random extension right after the input
	// itself, so a decided rejection's prefix entry is looked up — by
	// that extension, with deriving set — within the next call, and
	// storing it slim would only buy an immediate upgrade
	// re-execution. Exact-tier rejections from non-deriving runs stay
	// slim (they serve re-pops, which are non-deriving too) and
	// upgrade in place on the rare deriving touch.
	rf = factsOfInto(&scratch.rf, rec, deriving || decided, nil)
	e := cachedFacts{accepted: rf.accepted, pathHash: rf.pathHash}
	if deriving || decided || rf.accepted {
		e.derived = derivedOf(rf)
	}
	if decided {
		// Rejected on the prefix alone: every extension of these d
		// bytes replays this trace, so the entry matches whole families
		// of future candidates.
		cache.PutPrefix(input[:d], e)
	} else {
		// Length-dependent outcome (acceptance or EOF rejection, or a
		// deciding prefix too long to be worth a probe slot): only a
		// re-execution of the identical input may reuse it. These
		// recur constantly — every re-pop of a candidate re-runs its
		// input, and extension runs re-draw earlier extensions — so
		// all of them are admitted up to the cache's entry bound.
		cache.PutExact(input, e)
	}
	return rf, false
}
