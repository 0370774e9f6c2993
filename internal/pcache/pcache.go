// Package pcache is the prefix-decided execution cache behind
// core.Config.Cache: a memo table over subject executions that lets
// the campaign engines skip re-running inputs whose outcome is already
// known. It exploits the structure of parser-directed search — almost
// every candidate the engine executes shares a long, already-decided
// prefix with a previously executed input — through two tiers:
//
//   - *deciding prefixes*: when an execution was rejected on a prefix
//     alone (trace.Record.DecidedPrefix), any later input sharing that
//     prefix is rejected with the identical trace, so the memoised
//     outcome stands in for a real run;
//   - exact inputs for everything else (acceptances and EOF-decided
//     rejections), sound because subjects are deterministic:
//     re-executing the very same input — which the engines do on every
//     candidate re-pop — replays the same trace.
//
// Both tiers live in one table keyed by a 128-bit rolling hash of the
// bytes, with a bitset recording which prefix lengths hold entries. A
// lookup is a single arithmetic pass over the input that probes the
// table at each populated length and once more for the exact tier —
// no trie to chase and no stored key bytes to compare, which keeps the
// cache's memory footprint (and the cash-line traffic it steals from
// the engine's own hot loops) to ~40 bytes per entry. Keys are
// compared by hash only: with 128 independent bits the odds of any
// collision over a campaign's worth of entries are far below 1e-20,
// and the engine-level cache-transparency property
// (internal/conformance) would surface one as a fingerprint mismatch.
//
// The table is striped: entries spread over independently RW-locked
// segments selected by key hash, so concurrent callers probe and fill
// a shared cache without contending on one global lock. (The
// campaign engine is serial, so one goroutine touches a campaign's
// cache; the striping is kept until it is measured against a
// single-owner table.) The routing structures in front of
// the segments — the prefix-length bitset and the negative bloom
// filter — are read lock-free with atomic word loads; writers publish
// bits with CAS (the filters are append-only, so a racing reader can
// at worst miss a just-added entry and fall back to a real execution,
// never return a wrong value).
//
// The cache is value-generic, safe for concurrent use, bounded, and
// deterministic: a full cache stops admitting entries instead of
// evicting, so a lookup's answer never depends on timing. Used from a
// single goroutine its observable behaviour — every admission bool,
// every lookup, Len, the retire point — is bit-identical to the
// pre-striping global-lock implementation.
//
// Contract for Get: a stored deciding prefix of the input wins over an
// exact entry, and among nested deciding prefixes the shortest wins.
// In the intended use these can never disagree — a deciding prefix and
// any executed extension of it carry identical facts by the subject
// contract — so the order only fixes which equivalent copy is
// returned.
package pcache

import (
	"sync"
	"sync/atomic"
)

// DefaultLimit is the entry bound used when New is given 0.
const DefaultLimit = 1 << 18

// key is the 128-bit identity of a stored byte string (plus tier tag).
type key [2]uint64

// Two independent 64-bit rolling hashes: FNV-1a and a
// multiply-shift-free variant with a splitmix-style odd multiplier.
// Both consume one byte per step, so prefix probes reuse the running
// state of a single left-to-right pass.
const (
	seed1  = 14695981039346656037
	prime1 = 1099511628211
	seed2  = 0x9e3779b97f4a7c15
	mult2  = 0xff51afd7ed558ccd
)

// exactTag separates the exact tier's keys from the prefix tier's, so
// an exact entry can never match a proper extension of its input.
const exactTag = 0x9ddfea08eb382d69

func step(h1, h2 uint64, b byte) (uint64, uint64) {
	return (h1 ^ uint64(b)) * prime1, (h2 + uint64(b) + 1) * mult2
}

// bloomWords sizes the negative filter in front of the table: 64 KiB
// (2^13 words, 2^19 bits), small enough to stay resident in L2 while
// the engine hammers it, large enough that even a full cache
// (DefaultLimit entries, two bits each) answers most absent probes
// with two loads of hot memory instead of a main-memory map probe.
// The filter is append-only like the cache itself, so false positives
// only cost a map probe — never a wrong answer.
const (
	bloomWords = 1 << 13
	bloomMask  = bloomWords*64 - 1
)

// stripeBits fixes the segment count at 16: enough that a handful of
// concurrent callers rarely collide on a segment lock, few enough that the per-segment maps stay dense. Segments are
// selected by the top hash bits, disjoint from the low bits the bloom
// filter consumes.
const (
	stripeBits  = 4
	stripeCount = 1 << stripeBits
)

// segment is one independently locked slice of the table. The live
// fields are padded to a 128-byte stride so two segments' locks never
// share a cache line.
type segment[V any] struct {
	mu sync.RWMutex
	m  map[key]V
	_  [96]byte
}

func segIdx(k key) int { return int(k[0] >> (64 - stripeBits)) }

// lenBits is the prefix-length bitset, read lock-free: the word slice
// hangs off an atomic pointer (it grows as longer prefixes appear) and
// individual words are loaded atomically. Writers serialise on mu and
// publish with atomic stores, so a racing reader sees either the bit
// or a benign false negative — never a torn word.
type lenBits struct {
	mu    sync.Mutex
	words atomic.Pointer[[]uint64]
}

func (b *lenBits) test(n int) bool {
	wp := b.words.Load()
	if wp == nil {
		return false
	}
	w := *wp
	i := n >> 6
	return i < len(w) && atomic.LoadUint64(&w[i])&(1<<(n&63)) != 0
}

func (b *lenBits) set(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := n >> 6
	var w []uint64
	if wp := b.words.Load(); wp != nil {
		w = *wp
	}
	if i >= len(w) {
		grown := make([]uint64, i+1)
		for j := range w {
			// Writers are serialised on mu, but lock-free testers load
			// these words concurrently — keep every cross-goroutine
			// access to the shared array on the same atomic ops.
			grown[j] = atomic.LoadUint64(&w[j])
		}
		grown[i] |= 1 << (n & 63)
		b.words.Store(&grown)
		return
	}
	atomic.StoreUint64(&w[i], atomic.LoadUint64(&w[i])|1<<(n&63))
}

// Cache is a bounded, concurrency-safe prefix/exact memo table.
type Cache[V any] struct {
	retired atomic.Bool  // Retire was called: all operations are no-ops
	size    atomic.Int64 // admitted entries across all segments
	limit   int64
	lens    lenBits
	bloom   []uint64 // negative filter over stored keys; atomic words
	segs    []segment[V]
}

// New returns an empty cache bounded to limit stored entries across
// both tiers (0 = DefaultLimit).
func New[V any](limit int) *Cache[V] {
	if limit <= 0 {
		limit = DefaultLimit
	}
	c := &Cache[V]{
		limit: int64(limit),
		bloom: make([]uint64, bloomWords),
		segs:  make([]segment[V], stripeCount),
	}
	for i := range c.segs {
		c.segs[i].m = make(map[key]V)
	}
	return c
}

// bloomBits derives the two filter bit positions of a key from
// independent halves of its 128 bits.
func bloomBits(k key) (uint64, uint64) {
	return k[0] & bloomMask, (k[0]>>32 ^ k[1]) & bloomMask
}

// mayContain reports whether k could be stored (false = definitely
// absent).
func (c *Cache[V]) mayContain(k key) bool {
	b1, b2 := bloomBits(k)
	return atomic.LoadUint64(&c.bloom[b1>>6])&(1<<(b1&63)) != 0 &&
		atomic.LoadUint64(&c.bloom[b2>>6])&(1<<(b2&63)) != 0
}

// orWord sets bit in *w with a CAS loop; concurrent setters under
// different segment locks make a plain RMW a race.
func orWord(w *uint64, bit uint64) {
	for {
		old := atomic.LoadUint64(w)
		if old&bit == bit {
			return
		}
		if atomic.CompareAndSwapUint64(w, old, old|bit) {
			return
		}
	}
}

func (c *Cache[V]) bloomAdd(k key) {
	b1, b2 := bloomBits(k)
	orWord(&c.bloom[b1>>6], 1<<(b1&63))
	orWord(&c.bloom[b2>>6], 1<<(b2&63))
}

// lookup probes k's segment under its read lock.
func (c *Cache[V]) lookup(k key) (V, bool) {
	seg := &c.segs[segIdx(k)]
	seg.mu.RLock()
	v, ok := seg.m[k] // reading a nil (retired) map is a clean miss
	seg.mu.RUnlock()
	return v, ok
}

// Ref identifies an entry slot returned by Get. After a hit it
// addresses the entry that answered, so a caller holding richer facts
// for the same bytes can upgrade it in place with Set; after a miss
// it addresses the input's (absent) exact slot, so PutExactAt can
// admit the fresh outcome without re-hashing the input — and it
// additionally carries the rolling-hash state at the input's end, so
// GetExt can probe an extension of the same input without repeating
// the pass over the shared prefix. The zero Ref is inert everywhere.
type Ref struct {
	k  key
	n  int  // input length the hash state covers (miss Refs only)
	ok bool // an entry exists at k
}

// Missed reports whether r is the resumable miss Ref of a completed
// lookup (as opposed to a hit Ref or the zero Ref of a retired cache).
func (r Ref) Missed() bool { return !r.ok && r.k != (key{}) }

// Get returns the memoised value for input: the value of the shortest
// stored deciding prefix of input, or failing that the input's exact
// entry. The rolling pass touches only the lock-free routing bits;
// a segment lock is taken per surviving probe, so concurrent lookups
// of unrelated inputs rarely share a lock.
func (c *Cache[V]) Get(input []byte) (V, Ref, bool) {
	if c.retired.Load() {
		var zero V
		return zero, Ref{}, false
	}
	h1, h2 := uint64(seed1), uint64(seed2)
	if c.lens.test(0) {
		if v, ok := c.lookup(key{h1, h2}); ok {
			return v, Ref{k: key{h1, h2}, ok: true}, true
		}
	}
	for i := 0; i < len(input); i++ {
		h1, h2 = step(h1, h2, input[i])
		if c.lens.test(i + 1) {
			if k := (key{h1, h2}); c.mayContain(k) {
				if v, ok := c.lookup(k); ok {
					return v, Ref{k: k, ok: true}, true
				}
			}
		}
	}
	k := key{h1, h2 ^ exactTag}
	if c.mayContain(k) {
		if v, ok := c.lookup(k); ok {
			return v, Ref{k: k, ok: true}, true
		}
	}
	var zero V
	return zero, Ref{k: k, n: len(input)}, false
}

// GetExt is Get for an extension of a previously missed input: r must
// be the miss Ref of a lookup over some byte string p, and tail the
// bytes appended to p. The rolling pass resumes from r's hash state,
// so only tail's bytes are hashed — for the engines' candidate →
// candidate+char probe sequence that is one step instead of a second
// full pass over the candidate.
//
// Soundness requires what Get's contract already promises plus one
// caller-side guarantee: no prefix entry of length ≤ len(p) may have
// been admitted since the lookup that produced r. Under that guarantee
// the skipped probes are all repeats of probes the original lookup
// already saw miss, so GetExt's answer — value, hit flag, and returned
// miss Ref — is bit-identical to Get(p+tail)'s. The campaign engines
// hold the guarantee structurally: all admissions happen on the
// trajectory goroutine, and the only admission between a candidate's
// lookup and its extension's is the candidate's own outcome, whose
// prefix form is handled separately (core's extension hint) and whose
// exact form lives in the tagged tier GetExt never probes for prefix
// lengths.
func (c *Cache[V]) GetExt(r Ref, tail []byte) (V, Ref, bool) {
	if c.retired.Load() || !r.Missed() {
		var zero V
		return zero, Ref{}, false
	}
	h1, h2 := r.k[0], r.k[1]^exactTag
	n := r.n
	for i := 0; i < len(tail); i++ {
		h1, h2 = step(h1, h2, tail[i])
		n++
		if c.lens.test(n) {
			if k := (key{h1, h2}); c.mayContain(k) {
				if v, ok := c.lookup(k); ok {
					return v, Ref{k: k, ok: true}, true
				}
			}
		}
	}
	k := key{h1, h2 ^ exactTag}
	if c.mayContain(k) {
		if v, ok := c.lookup(k); ok {
			return v, Ref{k: k, ok: true}, true
		}
	}
	var zero V
	return zero, Ref{k: k, n: n}, false
}

// Set overwrites the entry r addresses (a no-op for the zero Ref or a
// never-admitted entry). Concurrent Sets of the same entry are safe;
// in the intended use racing writers carry equivalent values, so
// either winning is fine.
func (c *Cache[V]) Set(r Ref, v V) {
	if !r.ok {
		return
	}
	seg := &c.segs[segIdx(r.k)]
	seg.mu.Lock()
	if _, exists := seg.m[r.k]; exists {
		seg.m[r.k] = v
	}
	seg.mu.Unlock()
}

// hash runs the rolling pass over all of b.
func hash(b []byte) (uint64, uint64) {
	h1, h2 := uint64(seed1), uint64(seed2)
	for _, c := range b {
		h1, h2 = step(h1, h2, c)
	}
	return h1, h2
}

// PutPrefix stores v as the outcome decided by prefix: any input
// starting with these bytes will Get v. It reports whether the entry
// was stored — false when the cache is full or the prefix already has
// a value (first write wins; in the intended use a second write could
// only carry the identical facts).
func (c *Cache[V]) PutPrefix(prefix []byte, v V) bool {
	h1, h2 := hash(prefix)
	return c.put(key{h1, h2}, len(prefix), v)
}

// PutExact stores v as the outcome of exactly input (no extension
// matches it). It reports whether the entry was stored — false when
// the cache is full or the input already has an exact entry.
func (c *Cache[V]) PutExact(input []byte, v V) bool {
	h1, h2 := hash(input)
	return c.put(key{h1, h2 ^ exactTag}, -1, v)
}

// PutExactAt is PutExact addressed by the Ref a missing Get returned,
// sparing the caller a second pass over the input's bytes — the
// normal way the engines admit a fresh outcome right after a missed
// lookup.
func (c *Cache[V]) PutExactAt(r Ref, v V) bool {
	if r.ok || r.k == (key{}) {
		return false // a present entry, or the zero Ref
	}
	return c.put(r.k, -1, v)
}

func (c *Cache[V]) put(k key, prefixLen int, v V) bool {
	seg := &c.segs[segIdx(k)]
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if seg.m == nil || c.size.Load() >= c.limit {
		return false
	}
	if _, dup := seg.m[k]; dup {
		return false
	}
	// Reserve a slot against the shared bound; under concurrent puts
	// the pre-check above can pass in several segments at once, so the
	// reservation is what actually enforces the limit.
	if c.size.Add(1) > c.limit {
		c.size.Add(-1)
		return false
	}
	seg.m[k] = v
	c.bloomAdd(k)
	if prefixLen >= 0 {
		c.lens.set(prefixLen)
	}
	return true
}

// Len returns the number of stored entries across both tiers.
func (c *Cache[V]) Len() int {
	if c.retired.Load() {
		return 0
	}
	return int(c.size.Load())
}

// Retire permanently idles the cache and releases the entry storage:
// every later Get misses in one atomic load and every Put is a no-op.
// The routing bits (length bitset, bloom filter) stay allocated — a
// fixed ~64 KiB — so lock-free readers racing with Retire never
// observe freed storage; only the per-segment maps, which carry the
// real footprint, are dropped under their locks. The campaign engines
// call Retire when the adaptive mode (core.CacheAuto) observes a hit
// rate too low to pay for the lookups — safe at any point, from any
// goroutine, because the cache is semantically transparent: losing it
// changes wall-clock, never results.
func (c *Cache[V]) Retire() {
	c.retired.Store(true)
	for i := range c.segs {
		seg := &c.segs[i]
		seg.mu.Lock()
		seg.m = nil
		seg.mu.Unlock()
	}
}

// Retired reports whether Retire was called.
func (c *Cache[V]) Retired() bool { return c.retired.Load() }
