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
// copies them out of the sink-backed record), so candidates may alias
// them freely.
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
// hint is the extension-probe carry-over. The engine's loop always
// executes a candidate's random extension immediately after the
// candidate itself (deriving marks the extension call, and all
// executions — hence all cache admissions — happen on this one
// goroutine), which makes two shortcuts sound and bit-transparent:
//
//   - if the candidate's execution admitted the candidate's own
//     deciding prefix, the extension's Get is *guaranteed* to stop at
//     exactly that entry — no shorter prefix can exist (it would have
//     answered the candidate's lookup) and shortest-prefix-wins rules
//     out everything longer — so the lookup is answered without
//     hashing a byte;
//   - otherwise, every prefix probe up to the candidate's length
//     would repeat a probe the candidate's missed lookup already made
//     (the only admissions since were the candidate's own: an exact
//     entry in the tagged tier, or a prefix admission that took the
//     first shortcut), so pcache.GetExt resumes the rolling hash from
//     the candidate's miss Ref and hashes only the appended byte.
//
// Both return exactly what the full Get would have — same value, same
// hit/miss verdict, same counters — so fingerprints, corpora and
// retire milestones are unchanged; only the per-iteration hash work
// drops from two passes over the input to one.
func cachedExec(cache *pcache.Cache[cachedFacts], prog subject.Program,
	input []byte, deriving bool, sink *trace.Sink,
	hint *extHint, scratch *runFacts) (rf *runFacts, hit bool) {
	var slot pcache.Ref
	upgrade := false
	if cache != nil {
		if deriving && hint.stored && len(input) > hint.prevLen && !cache.Retired() {
			e := hint.entry
			hint.clear()
			return e.runFactsInto(scratch, input), true
		}
		var e cachedFacts
		var ref pcache.Ref
		var ok bool
		if deriving && hint.ref.Missed() && len(input) > hint.prevLen {
			e, ref, ok = cache.GetExt(hint.ref, input[hint.prevLen:])
		} else {
			e, ref, ok = cache.Get(input)
		}
		hint.clear()
		if ok {
			if e.derived != nil {
				return e.runFactsInto(scratch, input), true
			}
			if !deriving {
				// Slim entries are always rejections, whose verdict and
				// path hash are all a non-deriving caller consumes.
				return e.runFactsInto(scratch, input), true
			}
			upgrade = true
		}
		slot = ref
	}
	rec := subject.ExecuteInto(prog, input, traceOpts(), sink)
	if cache == nil {
		return factsOfInto(scratch, rec, deriving), false
	}
	if upgrade {
		rf = factsOfInto(scratch, rec, true)
		cache.Set(slot, cachedFacts{accepted: rf.accepted, pathHash: rf.pathHash, derived: derivedOf(rf)})
		return rf, false
	}
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
	rf = factsOfInto(scratch, rec, deriving || decided)
	e := cachedFacts{accepted: rf.accepted, pathHash: rf.pathHash}
	if deriving || decided || rf.accepted {
		e.derived = derivedOf(rf)
	}
	if decided {
		// Rejected on the prefix alone: every extension of these d
		// bytes replays this trace, so the entry matches whole families
		// of future candidates.
		if cache.PutPrefix(input[:d], e) {
			hint.stored = true
			hint.entry = e
		}
	} else {
		// Length-dependent outcome (acceptance or EOF rejection, or a
		// deciding prefix too long to be worth a probe slot): only a
		// re-execution of the identical input may reuse it. These
		// recur constantly — every re-pop of a candidate re-runs its
		// input, and extension runs re-draw earlier extensions — so
		// all of them are admitted up to the cache's entry bound,
		// reusing the missed lookup's hash.
		cache.PutExactAt(slot, e)
	}
	hint.ref = slot
	hint.prevLen = len(input)
	return rf, false
}

// extHint is the lookup state cachedExec carries from a candidate's
// execution to its extension's (see cachedExec). The zero value is
// inert; clear resets it to inert, which every consult does — a hint
// is good for exactly the next call.
type extHint struct {
	ref     pcache.Ref  // miss Ref of the previous input's lookup
	prevLen int         // length of the previous input
	entry   cachedFacts // prefix entry the previous execution admitted
	stored  bool        // entry was admitted as a deciding prefix
}

func (h *extHint) clear() { h.ref = pcache.Ref{}; h.stored = false }
