// Package pcache is the prefix-decided execution cache behind
// core.Config.Cache: a memo table over subject executions that lets
// the campaign engine skip re-running inputs whose outcome is already
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
//     re-executing the very same input — which the engine does on
//     every candidate re-pop — replays the same trace.
//
// Both tiers live in one map keyed by a 128-bit rolling hash of the
// bytes, with a bitset recording which prefix lengths hold entries
// and a bloom filter in front of the map. A lookup is a single
// arithmetic pass over the input that probes the map at each
// populated length and once more for the exact tier — no trie to
// chase and no stored key bytes to compare, which keeps the cache's
// memory footprint (and the cache-line traffic it steals from the
// engine's own hot loops) to ~40 bytes per entry. Keys are compared
// by hash only: with 128 independent bits the odds of any collision
// over a campaign's worth of entries are far below 1e-20, and the
// engine-level cache-transparency property (internal/conformance)
// would surface one as a fingerprint mismatch.
//
// The API is a plain table keyed by bytes: Get looks an input up,
// PutPrefix or PutExact admits an outcome after a miss, and SetExact
// overwrites an exact entry in place. Each call hashes its own
// argument.
//
// A Cache has a single owner: it takes no locks and does no atomic
// operations, so at most one goroutine may call into it at a time.
// A campaign's cache is touched only by that campaign's serial engine
// loop, and the campaign fleet never steps one job on two workers at
// once; the fleet's hand-off of a campaign between workers is the
// only cross-goroutine edge the cache sees, and the fleet orders it.
//
// The cache is value-generic, bounded, and deterministic: a full
// cache stops admitting entries instead of evicting, so every
// admission bool, every lookup, Len and the retire point are a
// function of the call sequence alone.
//
// Contract for Get: a stored deciding prefix of the input wins over an
// exact entry, and among nested deciding prefixes the shortest wins.
// In the intended use these can never disagree — a deciding prefix and
// any executed extension of it carry identical facts by the subject
// contract — so the order only fixes which equivalent copy is
// returned.
package pcache

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

// bloomWords sizes the negative filter in front of the map: 64 KiB
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

// Cache is a bounded, single-owner prefix/exact memo table.
type Cache[V any] struct {
	m       map[key]V // both tiers; nil once retired
	limit   int
	lens    []uint64 // bit n set: some prefix entry has length n
	bloom   []uint64 // negative filter over stored keys
	retired bool     // Retire was called: all operations are no-ops
}

// New returns an empty cache bounded to limit stored entries across
// both tiers (0 = DefaultLimit).
func New[V any](limit int) *Cache[V] {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Cache[V]{
		m:     make(map[key]V),
		limit: limit,
		bloom: make([]uint64, bloomWords),
	}
}

// hasLen reports whether some prefix entry has length n.
func (c *Cache[V]) hasLen(n int) bool {
	i := n >> 6
	return i < len(c.lens) && c.lens[i]&(1<<(n&63)) != 0
}

func (c *Cache[V]) addLen(n int) {
	i := n >> 6
	for len(c.lens) <= i {
		c.lens = append(c.lens, 0)
	}
	c.lens[i] |= 1 << (n & 63)
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
	return c.bloom[b1>>6]&(1<<(b1&63)) != 0 && c.bloom[b2>>6]&(1<<(b2&63)) != 0
}

func (c *Cache[V]) bloomAdd(k key) {
	b1, b2 := bloomBits(k)
	c.bloom[b1>>6] |= 1 << (b1 & 63)
	c.bloom[b2>>6] |= 1 << (b2 & 63)
}

// Get returns the memoised value for input: the value of the shortest
// stored deciding prefix of input, or failing that the input's exact
// entry. The rolling pass consults the length bitset and the bloom
// filter first, so the map is probed only where an entry may exist.
func (c *Cache[V]) Get(input []byte) (V, bool) {
	var zero V
	if c.retired {
		return zero, false
	}
	h1, h2 := uint64(seed1), uint64(seed2)
	if c.hasLen(0) {
		if v, ok := c.m[key{h1, h2}]; ok {
			return v, true
		}
	}
	for i := 0; i < len(input); i++ {
		h1, h2 = step(h1, h2, input[i])
		if c.hasLen(i + 1) {
			if k := (key{h1, h2}); c.mayContain(k) {
				if v, ok := c.m[k]; ok {
					return v, true
				}
			}
		}
	}
	if k := (key{h1, h2 ^ exactTag}); c.mayContain(k) {
		if v, ok := c.m[k]; ok {
			return v, true
		}
	}
	return zero, false
}

// hash runs the rolling pass over all of b.
func hash(b []byte) (uint64, uint64) {
	h1, h2 := uint64(seed1), uint64(seed2)
	for _, c := range b {
		h1, h2 = step(h1, h2, c)
	}
	return h1, h2
}

// exactKey is input's key in the exact tier.
func exactKey(input []byte) key {
	h1, h2 := hash(input)
	return key{h1, h2 ^ exactTag}
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
	return c.put(exactKey(input), -1, v)
}

// SetExact overwrites input's exact entry with v. It does nothing when
// input has no exact entry or the cache is retired. The engine uses it
// to upgrade a slim entry with the derived facts of a re-execution of
// the same bytes, so the overwrite never changes a verdict.
func (c *Cache[V]) SetExact(input []byte, v V) {
	k := exactKey(input)
	if _, exists := c.m[k]; exists {
		c.m[k] = v
	}
}

func (c *Cache[V]) put(k key, prefixLen int, v V) bool {
	if c.retired || len(c.m) >= c.limit {
		return false
	}
	if _, dup := c.m[k]; dup {
		return false
	}
	c.m[k] = v
	c.bloomAdd(k)
	if prefixLen >= 0 {
		c.addLen(prefixLen)
	}
	return true
}

// Len returns the number of stored entries across both tiers.
func (c *Cache[V]) Len() int { return len(c.m) }

// Retire permanently idles the cache and releases all of its storage
// — the map, the bloom filter and the length bitset: every later Get
// misses at once and every Put is a no-op. The campaign engine calls
// Retire when the adaptive mode (core.CacheAuto) observes a hit rate
// too low to pay for the lookups — safe at any point because the
// cache is semantically transparent: losing it changes wall-clock,
// never results.
func (c *Cache[V]) Retire() {
	c.retired = true
	c.m, c.lens, c.bloom = nil, nil, nil
}

// Retired reports whether Retire was called.
func (c *Cache[V]) Retired() bool { return c.retired }
