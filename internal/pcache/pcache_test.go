package pcache

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// model is the reference implementation the cache must agree with:
// explicit byte-prefix semantics over plain maps, no hashing, no
// filters. Get returns the value of the shortest stored prefix of the
// input, else the exact entry; puts are first-write-wins and bounded
// by one shared entry limit.
type model struct {
	prefixes map[string]string
	exacts   map[string]string
	limit    int
}

func newModel(limit int) *model {
	return &model{prefixes: map[string]string{}, exacts: map[string]string{}, limit: limit}
}

func (m *model) size() int { return len(m.prefixes) + len(m.exacts) }

func (m *model) putPrefix(p, v string) bool {
	if m.size() >= m.limit {
		return false
	}
	if _, dup := m.prefixes[p]; dup {
		return false
	}
	m.prefixes[p] = v
	return true
}

func (m *model) putExact(k, v string) bool {
	if m.size() >= m.limit {
		return false
	}
	if _, dup := m.exacts[k]; dup {
		return false
	}
	m.exacts[k] = v
	return true
}

func (m *model) get(input string) (string, bool) {
	for l := 0; l <= len(input); l++ {
		if v, ok := m.prefixes[input[:l]]; ok {
			return v, true
		}
	}
	v, ok := m.exacts[input]
	return v, ok
}

// setExact mirrors SetExact: k's exact entry is overwritten, and
// nothing else — a missing exact entry or a prefix entry over the same
// bytes — is touched.
func (m *model) setExact(k, v string) {
	if _, ok := m.exacts[k]; ok {
		m.exacts[k] = v
	}
}

// randKey draws a short string over a three-letter alphabet, so
// random keys collide, nest and extend each other constantly — the
// regime where prefix semantics can go wrong.
func randKey(rng *rand.Rand) string {
	n := rng.Intn(9)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('a' + rng.Intn(3)))
	}
	return sb.String()
}

// TestModelAgreement drives random interleavings of every entry
// point — PutPrefix, PutExact, SetExact and Get —
// against the reference model: every put must admit or reject exactly
// like the model (the entry bound included; limit=4 fills within a
// few ops), every lookup must return the model's answer, and Len must
// track the model's size throughout.
func TestModelAgreement(t *testing.T) {
	for _, limit := range []int{4, 64, 1 << 16} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(limit)))
			c := New[string](limit)
			m := newModel(limit)
			for op := 0; op < 30000; op++ {
				if err := modelOp(c, m, rng, op); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// modelOp draws one random call to a cache entry point, makes it on
// both c and m, and reports the first disagreement — admission bool,
// lookup answer, or Len afterwards.
func modelOp(c *Cache[string], m *model, rng *rand.Rand, op int) error {
	k := randKey(rng)
	switch rng.Intn(8) {
	case 0:
		v := fmt.Sprintf("P%q#%d", k, op)
		got, want := c.PutPrefix([]byte(k), v), m.putPrefix(k, v)
		if got != want {
			return fmt.Errorf("op %d: PutPrefix(%q) = %v, model says %v", op, k, got, want)
		}
	case 1:
		v := fmt.Sprintf("E%q#%d", k, op)
		got, want := c.PutExact([]byte(k), v), m.putExact(k, v)
		if got != want {
			return fmt.Errorf("op %d: PutExact(%q) = %v, model says %v", op, k, got, want)
		}
	case 2, 3, 4:
		v := fmt.Sprintf("S%q#%d", k, op)
		c.SetExact([]byte(k), v)
		m.setExact(k, v)
	default:
		gotV, gotOK := c.Get([]byte(k))
		wantV, wantOK := m.get(k)
		if gotOK != wantOK || gotV != wantV {
			return fmt.Errorf("op %d: Get(%q) = (%q, %v), model says (%q, %v)",
				op, k, gotV, gotOK, wantV, wantOK)
		}
	}
	if c.Len() != m.size() {
		return fmt.Errorf("op %d: Len() = %d, model holds %d", op, c.Len(), m.size())
	}
	return nil
}

// TestShortestPrefixWins pins the nested-prefix contract directly.
func TestShortestPrefixWins(t *testing.T) {
	c := New[string](0)
	c.PutPrefix([]byte("abcd"), "long")
	c.PutPrefix([]byte("ab"), "short")
	c.PutExact([]byte("abcdef"), "exact")
	if v, ok := c.Get([]byte("abcdef")); !ok || v != "short" {
		t.Fatalf("Get = (%q, %v), want the shortest prefix entry", v, ok)
	}
	if v, ok := c.Get([]byte("a")); ok {
		t.Fatalf("Get(%q) = %q, want a miss (no stored prefix covers it)", "a", v)
	}
}

// TestExactDoesNotMatchExtensions: the exact tier must never answer
// for a proper extension or truncation of its input.
func TestExactDoesNotMatchExtensions(t *testing.T) {
	c := New[string](0)
	c.PutExact([]byte("abc"), "v")
	for _, probe := range []string{"ab", "abcd", "", "abca"} {
		if v, ok := c.Get([]byte(probe)); ok {
			t.Errorf("Get(%q) = %q, want miss", probe, v)
		}
	}
	if v, ok := c.Get([]byte("abc")); !ok || v != "v" {
		t.Errorf("Get(abc) = (%q, %v), want the exact entry", v, ok)
	}
}

// TestEmptyPrefixDecidesEverything: a deciding prefix of length zero
// answers every lookup, the degenerate reject-all parser.
func TestEmptyPrefixDecidesEverything(t *testing.T) {
	c := New[string](0)
	c.PutPrefix(nil, "all")
	for _, probe := range []string{"", "x", "abc"} {
		if v, ok := c.Get([]byte(probe)); !ok || v != "all" {
			t.Errorf("Get(%q) = (%q, %v), want the empty-prefix entry", probe, v, ok)
		}
	}
}

// TestSetExact: SetExact overwrites an input's existing exact entry
// and nothing else — not a missing entry, not a prefix entry over the
// same bytes, not the exact entry of an extension — and never changes
// Len.
func TestSetExact(t *testing.T) {
	c := New[string](0)
	c.SetExact([]byte("key"), "nope")
	if _, ok := c.Get([]byte("key")); ok || c.Len() != 0 {
		t.Fatalf("SetExact without an entry stored one (Len %d)", c.Len())
	}
	c.PutExact([]byte("key"), "v1")
	if c.PutExact([]byte("key"), "v2") {
		t.Fatal("PutExact is first-write-wins")
	}
	c.SetExact([]byte("key"), "v3")
	if v, ok := c.Get([]byte("key")); !ok || v != "v3" {
		t.Fatalf("Get = (%q, %v) after SetExact, want the overwritten entry", v, ok)
	}
	c.PutPrefix([]byte("pre"), "p")
	c.SetExact([]byte("pre"), "nope")
	c.SetExact([]byte("ke"), "nope")
	c.SetExact([]byte("keyz"), "nope")
	if v, ok := c.Get([]byte("pre")); !ok || v != "p" {
		t.Fatalf("Get(pre) = (%q, %v), SetExact touched a prefix entry", v, ok)
	}
	for _, probe := range []string{"ke", "keyz"} {
		if v, ok := c.Get([]byte(probe)); ok {
			t.Fatalf("Get(%q) = %q, SetExact stored a missing entry", probe, v)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestRetire: a retired cache answers nothing through any lookup,
// admits nothing through any put, reports empty, and has released
// its map, bloom filter and length bitset.
func TestRetire(t *testing.T) {
	c := New[string](0)
	c.PutExact([]byte("k"), "v")
	c.PutPrefix([]byte("p"), "w")
	if c.m == nil || c.bloom == nil || c.lens == nil {
		t.Fatal("a live cache with a prefix entry lacks its map, bloom filter or bitset")
	}
	c.Retire()
	if !c.Retired() {
		t.Fatal("Retired() = false after Retire")
	}
	if _, ok := c.Get([]byte("k")); ok {
		t.Error("Get hit after Retire")
	}
	if c.PutExact([]byte("x"), "v") || c.PutPrefix([]byte("y"), "v") {
		t.Error("Put admitted an entry after Retire")
	}
	c.SetExact([]byte("k"), "z") // must not panic or store anything
	if c.Len() != 0 {
		t.Errorf("Len = %d after Retire, want 0", c.Len())
	}
	if c.m != nil || c.bloom != nil || c.lens != nil {
		t.Error("Retire kept the map, bloom filter or bitset allocated")
	}
}

// TestConcurrentModelAgreement runs the model agreement under the
// campaign fleet's sharing pattern: several jobs, each a cache with
// its own model, are stepped in batches by a pool of workers that pass
// the jobs between them over a channel, so no job is ever held by two
// workers at once and a job's successive batches run on different
// goroutines. The channel hand-off is the only ordering between
// batches; run with -race this checks that the single-owner contract
// needs nothing more from the cache, and that caches stepped in
// parallel share no state. At limit=97 every job fills its bound.
func TestConcurrentModelAgreement(t *testing.T) {
	for _, limit := range []int{1 << 16, 97} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			const (
				jobs     = 4
				workers  = 3
				batches  = 40
				perBatch = 250
			)
			type job struct {
				id, op, batch int
				c             *Cache[string]
				m             *model
				rng           *rand.Rand
				err           error
			}
			queue := make(chan *job, jobs)
			done := make(chan *job, jobs)
			for j := 0; j < jobs; j++ {
				queue <- &job{
					id:  j,
					c:   New[string](limit),
					m:   newModel(limit),
					rng: rand.New(rand.NewSource(int64(limit + j))),
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for jb := range queue {
						for i := 0; i < perBatch && jb.err == nil; i++ {
							jb.err = modelOp(jb.c, jb.m, jb.rng, jb.op)
							jb.op++
						}
						if jb.batch++; jb.batch == batches || jb.err != nil {
							done <- jb
						} else {
							queue <- jb
						}
					}
				}()
			}
			finished := make([]*job, 0, jobs)
			for len(finished) < jobs {
				finished = append(finished, <-done)
			}
			close(queue)
			wg.Wait()
			for _, jb := range finished {
				if jb.err != nil {
					t.Fatalf("job %d: %v", jb.id, jb.err)
				}
				if jb.c.Len() != jb.m.size() {
					t.Fatalf("job %d: Len() = %d, model holds %d", jb.id, jb.c.Len(), jb.m.size())
				}
				if limit < 1<<16 && jb.c.Len() != limit {
					t.Fatalf("job %d: Len() = %d, want the bound %d reached", jb.id, jb.c.Len(), limit)
				}
			}
		})
	}
}

// TestConcurrentReaders runs independent caches side by side, one
// owner goroutine each (as the fleet runs one campaign per worker),
// over the same seeded call sequence of puts and lookups. Any value a
// lookup returns must have been stored for a prefix of the input, or
// for the input itself (values encode their own key), and since every
// owner makes identical calls, every owner must see identical answers:
// caches that share nothing cannot tell they ran in parallel. Run with
// -race this also checks that the package keeps no shared mutable
// state.
func TestConcurrentReaders(t *testing.T) {
	const owners = 4
	type result struct {
		answers []string
		n       int
		err     error
	}
	results := make([]result, owners)
	var wg sync.WaitGroup
	for w := 0; w < owners; w++ {
		wg.Add(1)
		go func(res *result) {
			defer wg.Done()
			c := New[string](1 << 14)
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 30000; i++ {
				k := randKey(rng)
				switch rng.Intn(4) {
				case 0:
					c.PutPrefix([]byte(k), "P:"+k)
				case 1:
					c.PutExact([]byte(k), "E:"+k)
				default:
					v, ok := c.Get([]byte(k))
					if !ok {
						res.answers = append(res.answers, "")
						continue
					}
					res.answers = append(res.answers, v)
					switch {
					case strings.HasPrefix(v, "P:"):
						if !strings.HasPrefix(k, v[2:]) {
							res.err = fmt.Errorf("Get(%q) returned prefix entry %q that is not a prefix", k, v)
							return
						}
					case strings.HasPrefix(v, "E:"):
						if v[2:] != k {
							res.err = fmt.Errorf("Get(%q) returned exact entry %q for different bytes", k, v)
							return
						}
					default:
						res.err = fmt.Errorf("Get(%q) returned unknown value %q", k, v)
						return
					}
				}
			}
			res.n = c.Len()
		}(&results[w])
	}
	wg.Wait()
	for w, res := range results {
		if res.err != nil {
			t.Fatalf("owner %d: %v", w, res.err)
		}
		if res.n != results[0].n || strings.Join(res.answers, "|") != strings.Join(results[0].answers, "|") {
			t.Fatalf("owner %d diverged from owner 0: Len %d vs %d over %d vs %d lookups",
				w, res.n, results[0].n, len(res.answers), len(results[0].answers))
		}
	}
}

// TestConcurrentRetire fills a cache on one goroutine, retires it on
// a second, and hands it to a third that makes every call on keys the
// first owner stored. Retire releases the map, bloom filter and bitset,
// so each call must answer a clean miss or do nothing instead of
// touching released storage (a nil-bloom panic once lived on this
// path). Several such pipelines run in parallel, and the caches of the
// others must not notice.
func TestConcurrentRetire(t *testing.T) {
	const pipelines = 4
	errs := make([]error, pipelines)
	var wg sync.WaitGroup
	for p := 0; p < pipelines; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				filled, retired := make(chan *Cache[string]), make(chan *Cache[string])
				go func() { // owner 1: fill
					c := New[string](0)
					rng := rand.New(rand.NewSource(int64(p*1000 + round)))
					for i := 0; i < 200; i++ {
						k := randKey(rng)
						c.PutExact([]byte(k), "E:"+k)
						c.PutPrefix([]byte(k+"z"), "P:"+k)
					}
					c.PutExact([]byte("hit"), "v")
					filled <- c
				}()
				go func() { // owner 2: retire
					c := <-filled
					c.Retire()
					retired <- c
				}()
				c := <-retired // owner 3: probe the retired cache
				if _, ok := c.Get([]byte("hit")); ok {
					errs[p] = fmt.Errorf("round %d: Get hit after Retire", round)
					return
				}
				c.SetExact([]byte("hit"), "w")
				if c.PutExact([]byte("miss"), "v") || c.PutPrefix([]byte("a"), "v") || c.Len() != 0 {
					errs[p] = fmt.Errorf("round %d: retired cache admitted an entry (Len %d)", round, c.Len())
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("pipeline %d: %v", p, err)
		}
	}
}
