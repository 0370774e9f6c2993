package core

import (
	"reflect"
	"testing"

	"pfuzzer/internal/pcache"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/subject"
	"pfuzzer/internal/subjects/expr"
	"pfuzzer/internal/subjects/ini"
	"pfuzzer/internal/subjects/urlp"
	"pfuzzer/internal/trace"
)

// collectCacheEvents runs a campaign and returns the EventCache
// stream plus the final result.
func collectCacheEvents(t *testing.T, cfg Config, prog interface {
	Name() string
}) ([]Event, *Result) {
	t.Helper()
	var events []Event
	cfg.Events = func(ev Event) {
		if ev.Kind == EventCache {
			events = append(events, ev)
		}
	}
	e, ok := registry.Get(prog.Name())
	if !ok {
		t.Fatalf("subject %s not registered", prog.Name())
	}
	res := New(e.New(), cfg).Run()
	return events, res
}

// TestCacheEventsMonotoneAndComplete: the EventCache stream's
// counters never decrease, every report accounts for every execution
// so far, and the final report matches the result exactly.
func TestCacheEventsMonotoneAndComplete(t *testing.T) {
	events, res := collectCacheEvents(t,
		Config{Seed: 1, MaxExecs: 6000, Cache: CacheOn}, expr.New())
	if len(events) == 0 {
		t.Fatal("cache-enabled campaign emitted no EventCache")
	}
	prev := Event{}
	for i, ev := range events {
		if ev.Hits < prev.Hits || ev.Misses < prev.Misses || ev.Execs < prev.Execs {
			t.Fatalf("event %d went backwards: %+v after %+v", i, ev, prev)
		}
		if ev.Hits+ev.Misses != ev.Execs {
			t.Fatalf("event %d: %d hits + %d misses != %d execs", i, ev.Hits, ev.Misses, ev.Execs)
		}
		prev = ev
	}
	last := events[len(events)-1]
	if last.Hits != res.CacheHits || last.Misses != res.CacheMisses || last.Execs != res.Execs {
		t.Fatalf("final event %+v does not match result (hits=%d misses=%d execs=%d)",
			last, res.CacheHits, res.CacheMisses, res.Execs)
	}
	if res.CacheHits == 0 {
		t.Fatal("expr campaign with the cache forced on recorded zero hits")
	}
}

// TestCacheOffEmitsNothing: CacheOff means no EventCache reports and
// zero counters.
func TestCacheOffEmitsNothing(t *testing.T) {
	events, res := collectCacheEvents(t,
		Config{Seed: 1, MaxExecs: 3000, Cache: CacheOff}, expr.New())
	if len(events) != 0 {
		t.Fatalf("CacheOff campaign emitted %d EventCache reports", len(events))
	}
	if res.CacheHits != 0 || res.CacheMisses != 0 || res.CacheRetired {
		t.Fatalf("CacheOff campaign reported cache state: %d/%d retired=%v",
			res.CacheHits, res.CacheMisses, res.CacheRetired)
	}
}

// TestCacheCountersSurviveSnapshotResume: counters carry across a
// snapshot/restore cut, the stream invariant holds on the resumed
// half, and the resumed campaign's corpus still matches the
// uninterrupted run's.
func TestCacheCountersSurviveSnapshotResume(t *testing.T) {
	e, _ := registry.Get("expr")
	cfg := Config{Seed: 1, MaxExecs: 6000, Cache: CacheOn}
	want := New(e.New(), cfg).Run()

	first := NewCampaign(e.New(), cfg)
	for first.Result().Execs < 2500 {
		if _, more := first.Step(333); !more {
			t.Fatal("campaign finished before the cut")
		}
	}
	cut := first.Result()
	if cut.CacheHits+cut.CacheMisses != cut.Execs {
		t.Fatalf("pre-cut: %d + %d != %d", cut.CacheHits, cut.CacheMisses, cut.Execs)
	}
	blob, err := first.Snapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := UnmarshalSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.CacheHits != cut.CacheHits || snap.CacheMisses != cut.CacheMisses {
		t.Fatalf("snapshot counters %d/%d, live %d/%d",
			snap.CacheHits, snap.CacheMisses, cut.CacheHits, cut.CacheMisses)
	}

	var events []Event
	resumed, err := Restore(e.New(), Config{Events: func(ev Event) {
		if ev.Kind == EventCache {
			events = append(events, ev)
		}
	}}, snap)
	if err != nil {
		t.Fatal(err)
	}
	got := resumed.Result()
	if got.CacheHits != cut.CacheHits || got.CacheMisses != cut.CacheMisses {
		t.Fatalf("restored counters %d/%d, want %d/%d",
			got.CacheHits, got.CacheMisses, cut.CacheHits, cut.CacheMisses)
	}
	for {
		if spent, more := resumed.Step(500); !more || spent == 0 {
			break
		}
	}
	if got.CacheHits+got.CacheMisses != got.Execs {
		t.Fatalf("post-resume: %d + %d != %d", got.CacheHits, got.CacheMisses, got.Execs)
	}
	for i, ev := range events {
		if ev.Hits+ev.Misses != ev.Execs {
			t.Fatalf("resumed event %d: %d + %d != %d", i, ev.Hits, ev.Misses, ev.Execs)
		}
	}
	// The resumed campaign rebuilds its cache lazily, so its hit/miss
	// split differs from the uninterrupted run's — but the corpus must
	// not.
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("resumed campaign fingerprint %#x, uninterrupted %#x",
			got.Fingerprint(), want.Fingerprint())
	}
}

// cacheCounters is the observable footprint of a campaign's cache:
// the hit/miss split and whether CacheAuto retired it.
type cacheCounters struct {
	hits, misses int
	retired      bool
}

// wantCacheCounters pins, per subject, the cache counters of the
// seed-1, 12000-execution campaigns TestCacheModesMatchOffAllSubjects
// runs, for CacheAuto and CacheOn in that order. CacheRetired (and the
// retire milestone behind it) is campaign state written into
// snapshots, so a cache rewrite that shifts a single admission, hit or
// retire point shows up here even when every fingerprint still
// matches. A change to the adaptive retirement rule (the ROADMAP's
// cost-rule item) is expected to move these values; re-record them
// then, and only then.
var wantCacheCounters = map[string][2]cacheCounters{
	"ini":     {{11995, 6, false}, {11995, 6, false}},
	"csv":     {{11899, 101, false}, {11899, 101, false}},
	"cjson":   {{1331, 10670, true}, {2387, 9614, false}},
	"tinyc":   {{5818, 6183, false}, {5818, 6183, false}},
	"mjs":     {{1592, 10408, true}, {2246, 9754, false}},
	"expr":    {{1081, 10920, true}, {1618, 10383, false}},
	"paren":   {{5229, 6771, false}, {5229, 6771, false}},
	"urlp":    {{941, 11059, true}, {1174, 10826, false}},
	"sexpr":   {{1461, 10539, true}, {2124, 9876, false}},
	"httpreq": {{1712, 10288, true}, {2513, 9487, false}},
	"dotg":    {{6763, 5237, false}, {6763, 5237, false}},
}

// TestCacheModesMatchOffAllSubjects is the cache-soundness gate on
// every registered subject: with the cache on, and with CacheAuto past
// its first retire milestone (cacheProbation), a campaign's
// fingerprint equals the CacheOff campaign's. An unsound cache entry
// shows up here as a divergence. Each cached campaign's counters must
// also match wantCacheCounters.
func TestCacheModesMatchOffAllSubjects(t *testing.T) {
	if testing.Short() {
		t.Skip("33 campaigns of 12k executions; skipped with -short")
	}
	const execs = 12000 // past the 8192-exec retire milestone
	for _, e := range registry.All() {
		t.Run(e.Name, func(t *testing.T) {
			run := func(mode CacheMode) *Result {
				return New(e.New(), Config{Seed: 1, MaxExecs: execs, Cache: mode}).Run()
			}
			off := run(CacheOff)
			want, pinned := wantCacheCounters[e.Name]
			if !pinned {
				t.Errorf("no pinned cache counters for subject %s", e.Name)
			}
			for i, mode := range []CacheMode{CacheAuto, CacheOn} {
				got := run(mode)
				if got.Fingerprint() != off.Fingerprint() {
					t.Errorf("cache mode %d: fingerprint %#x, CacheOff %#x (%d vs %d valids)",
						mode, got.Fingerprint(), off.Fingerprint(), len(got.Valids), len(off.Valids))
				}
				c := cacheCounters{got.CacheHits, got.CacheMisses, got.CacheRetired}
				if pinned && c != want[i] {
					t.Errorf("cache mode %d: counters %+v, pinned %+v", mode, c, want[i])
				}
			}
		})
	}
}

// TestCacheAutoRetires: the adaptive mode drops the cache on a
// low-hit-rate campaign (urlp's open URL grammar executes mostly
// fresh inputs) and keeps it where it pays (ini saturates to a
// near-total hit rate). Both remain corpus-identical to CacheOff.
func TestCacheAutoRetires(t *testing.T) {
	low := New(urlp.New(), Config{Seed: 1, MaxExecs: 20000}).Run()
	if !low.CacheRetired {
		t.Errorf("urlp auto campaign kept the cache at hit rate %.1f%%", 100*low.CacheHitRate())
	}
	if low.CacheHits+low.CacheMisses != low.Execs {
		t.Errorf("urlp: %d + %d != %d after retirement", low.CacheHits, low.CacheMisses, low.Execs)
	}

	high := New(ini.New(), Config{Seed: 1, MaxExecs: 20000}).Run()
	if high.CacheRetired {
		t.Errorf("ini auto campaign retired the cache at hit rate %.1f%%", 100*high.CacheHitRate())
	}
	if high.CacheHitRate() < 0.9 {
		t.Errorf("ini hit rate %.1f%%, expected a saturating campaign", 100*high.CacheHitRate())
	}

	for _, name := range []string{"urlp", "ini"} {
		e, _ := registry.Get(name)
		auto := New(e.New(), Config{Seed: 1, MaxExecs: 20000}).Run()
		off := New(e.New(), Config{Seed: 1, MaxExecs: 20000, Cache: CacheOff}).Run()
		if auto.Fingerprint() != off.Fingerprint() {
			t.Errorf("%s: CacheAuto campaign diverged from CacheOff", name)
		}
	}
}

// TestCachedExecUpgradesSlimEntry drives the slim-entry upgrade path
// on one EOF-rejected input, which the cache stores in the exact tier:
// a non-deriving miss stores a slim entry, a deriving lookup of it
// re-executes and upgrades the entry in place, and a second deriving
// lookup is a hit whose derived facts equal a fresh distillation.
func TestCachedExecUpgradesSlimEntry(t *testing.T) {
	prog := expr.New()
	input := []byte("(1+")
	rec := subject.Execute(prog, input, traceOpts())
	if _, decided := rec.DecidedPrefix(); decided || rec.Accepted() {
		t.Fatalf("%q must be an EOF rejection (decided=%v accepted=%v)", input, decided, rec.Accepted())
	}
	want := factsOf(rec, true)
	if len(want.trimmed) == 0 || len(want.lastComps) == 0 {
		t.Fatalf("%q distills no derived facts to compare", input)
	}
	cache := pcache.New[cachedFacts](0)
	var sink trace.Sink
	var scratch distillScratch

	if _, hit := cachedExec(cache, prog, input, false, &sink, &scratch); hit {
		t.Fatal("first lookup hit an empty cache")
	}
	if e, ok := cache.Get(input); !ok || e.derived != nil {
		t.Fatalf("non-deriving miss stored (ok=%v, derived=%v), want a slim entry", ok, e.derived != nil)
	}

	if _, hit := cachedExec(cache, prog, input, true, &sink, &scratch); hit {
		t.Fatal("deriving lookup of a slim entry counted as a hit")
	}
	if e, ok := cache.Get(input); !ok || e.derived == nil {
		t.Fatalf("deriving re-execution left (ok=%v, derived=%v), want the entry upgraded", ok, e.derived != nil)
	}

	rf, hit := cachedExec(cache, prog, input, true, &sink, &scratch)
	if !hit {
		t.Fatal("deriving lookup of the upgraded entry missed")
	}
	if rf.accepted != want.accepted || rf.pathHash != want.pathHash || rf.stack != want.stack ||
		!reflect.DeepEqual(rf.trimmed, want.trimmed) || !reflect.DeepEqual(rf.lastComps, want.lastComps) {
		t.Fatalf("upgraded hit = %+v, fresh facts = %+v", *rf, *want)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want the one upgraded in place", cache.Len())
	}
}
