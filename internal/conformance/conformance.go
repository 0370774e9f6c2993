// Package conformance is a property-based test kit that machine-checks
// the contract every engine layer silently assumes of a registered
// subject. The fuzzer core substitutes characters at rejection
// offsets (Algorithm 1), the miner renders token streams back into
// inputs, the fleet orchestrator slices campaigns, and the corpus
// store resumes them from snapshots — each of those moves is only
// sound if the subject behaves like a deterministic, left-to-right,
// prefix-deciding parser with a round-trippable lexer. The kit turns
// those assumptions into checks:
//
//   - Determinism: the same input produces the identical trace
//     (comparisons, EOF accesses, block sequence, path hash) on every
//     run, including concurrent runs over one shared Program value,
//     so a Program may be shared across goroutines.
//   - Prefix behaviour: truncating an input changes the trace only
//     from the first EOF access on (trace-prefix agreement); the
//     rejection offset grows monotonically with the prefix length;
//     and a rejection recorded without any EOF access is final — no
//     appended suffix can change the comparisons or the verdict.
//   - Lexer round-trip: rendering a lexed token stream with the
//     miner's separator rule re-lexes to exactly the same stream
//     (Render ∘ lex = id), the identity grammar mining is built on.
//   - Engine agreement: a blocking run, sliced stepping and the
//     hybrid campaign's exploration phase all emit the identical
//     corpus, and every campaign only ever emits inputs the subject
//     accepts.
//   - Snapshot/resume: a campaign cut mid-run, marshalled, restored
//     and driven to the same budget reproduces the uninterrupted
//     corpus bit for bit.
//
// Check runs the whole kit against one registry entry; the package's
// own test applies it to every registered subject, so a new subject
// is conformance-checked by registering it and nothing else.
package conformance

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"pfuzzer/internal/core"
	"pfuzzer/internal/mine"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/subject"
	"pfuzzer/internal/trace"
)

// Options tunes the kit's budgets. The zero value is ready to use.
type Options struct {
	// Seed drives probe generation and every campaign (default 1).
	Seed int64
	// CorpusExecs is the budget of the corpus-building campaign whose
	// valids seed the probe set (default 3000).
	CorpusExecs int
	// EngineExecs is the budget of the engine-agreement and
	// snapshot/resume campaigns (default 2000).
	EngineExecs int
	// MaxProbes caps the probe set (default 250).
	MaxProbes int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CorpusExecs == 0 {
		o.CorpusExecs = 3000
	}
	if o.EngineExecs == 0 {
		o.EngineExecs = 2000
	}
	if o.MaxProbes == 0 {
		o.MaxProbes = 250
	}
	return o
}

// Check runs the full conformance kit against e with default options.
func Check(t *testing.T, e registry.Entry) {
	CheckWith(t, e, Options{})
}

// CheckWith runs the full conformance kit against e.
func CheckWith(t *testing.T, e registry.Entry, o Options) {
	o = o.withDefaults()
	if err := registry.Validate(e); err != nil {
		t.Fatalf("entry fails registry validation: %v", err)
	}

	// One serial reference campaign supplies both the probe corpus
	// and the engine-agreement baseline.
	ref := core.New(e.New(), core.Config{Seed: o.Seed, MaxExecs: o.CorpusExecs}).Run()
	valids := ref.ValidInputs()
	probes := probeInputs(o, valids)

	t.Run("determinism", func(t *testing.T) { checkDeterminism(t, e, probes) })
	t.Run("prefix", func(t *testing.T) { checkPrefix(t, e, probes) })
	t.Run("lexer-roundtrip", func(t *testing.T) { checkLexerRoundTrip(t, e, valids) })
	t.Run("engine-agreement", func(t *testing.T) { checkEngineAgreement(t, e, o) })
	t.Run("snapshot-resume", func(t *testing.T) { checkSnapshotResume(t, e, o) })
	t.Run("cache-transparency", func(t *testing.T) { checkCacheTransparency(t, e, o) })
}

// probeInputs builds the deterministic probe set: campaign valids,
// mutations of them (truncations, byte flips, self-concatenations)
// and random printable strings — rejected inputs matter as much as
// accepted ones, since the prefix properties are about rejections.
func probeInputs(o Options, valids [][]byte) [][]byte {
	rng := rand.New(rand.NewSource(o.Seed * 31))
	probes := [][]byte{nil, []byte(" "), []byte("\n"), []byte("a"), []byte("0"), []byte("~")}
	mutate := valids
	if len(mutate) > 40 {
		mutate = mutate[:40]
	}
	probes = append(probes, mutate...)
	for _, v := range mutate {
		if len(v) == 0 {
			continue
		}
		probes = append(probes, v[:rng.Intn(len(v))])
		flip := append([]byte(nil), v...)
		flip[rng.Intn(len(flip))] = byte(0x20 + rng.Intn(95))
		probes = append(probes, flip)
		probes = append(probes, append(append([]byte(nil), v...), v...))
	}
	for i := 0; i < 32; i++ {
		b := make([]byte, 1+rng.Intn(12))
		for j := range b {
			b[j] = byte(0x20 + rng.Intn(95))
		}
		probes = append(probes, b)
	}
	if len(probes) > o.MaxProbes {
		probes = probes[:o.MaxProbes]
	}
	return probes
}

func execute(e registry.Entry, input []byte) *trace.Record {
	return subject.Execute(e.New(), input, trace.Full())
}

// compsEqual compares two comparison sequences field by field.
func compsEqual(a, b []trace.Comparison) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Kind != y.Kind || x.Index != y.Index || x.Last != y.Last ||
			x.Matched != y.Matched || x.Stack != y.Stack || x.Seq != y.Seq ||
			!bytes.Equal(x.Actual, y.Actual) || !bytes.Equal(x.Expected, y.Expected) {
			return false
		}
	}
	return true
}

func eofsEqual(a, b []trace.EOFAccess) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func blocksEqual(a, b []trace.BlockHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func recordsEqual(a, b *trace.Record) bool {
	return a.Exit == b.Exit && a.PathHash == b.PathHash && a.MaxDepth == b.MaxDepth &&
		compsEqual(a.Comparisons, b.Comparisons) && eofsEqual(a.EOFs, b.EOFs) &&
		blocksEqual(a.Blocks, b.Blocks)
}

// checkDeterminism: same input, identical full trace — across fresh
// Program values and across goroutines sharing one value (the
// registry's shared-Program contract: a Program must be safe for
// concurrent Run calls; run under -race this also proves the subject
// keeps no hidden mutable state).
func checkDeterminism(t *testing.T, e registry.Entry, probes [][]byte) {
	refs := make([]*trace.Record, len(probes))
	for i, in := range probes {
		refs[i] = execute(e, in)
		again := execute(e, in)
		if !recordsEqual(refs[i], again) {
			t.Errorf("input %q: two fresh runs produced different traces", in)
		}
	}

	// Cap the concurrent phase at ~50 probes, but sample them with a
	// stride across the whole set: the tail probes (mutations, random
	// strings) are the rejecting ones, and rejection paths are the
	// bulk of what a campaign actually executes.
	shared := e.New()
	stride := 1
	if len(probes) > 50 {
		stride = (len(probes) + 49) / 50
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bad [][]byte
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(probes); i += stride {
				rec := subject.Execute(shared, probes[i], trace.Full())
				if !recordsEqual(rec, refs[i]) {
					mu.Lock()
					bad = append(bad, probes[i])
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, in := range bad {
		t.Errorf("input %q: concurrent run over a shared Program diverged from the serial trace", in)
	}
}

// cuts samples proper truncation points of an input, always including
// 0. The full length is not a cut: the caller already holds the full
// run and closes the monotonicity chain against it directly.
func cuts(n int) []int {
	if n <= 16 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	step := n / 16
	var out []int
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	return out
}

// checkPrefix verifies the three left-to-right properties the search
// relies on.
func checkPrefix(t *testing.T, e registry.Entry, probes [][]byte) {
	for _, in := range probes {
		full := execute(e, in)

		prev := -1
		for _, cut := range cuts(len(in)) {
			rec := execute(e, in[:cut])

			// (a) Trace-prefix agreement: everything the truncated run
			// compared before its first EOF access must replay the full
			// run's comparisons exactly.
			firstEOF := int(^uint(0) >> 1)
			if len(rec.EOFs) > 0 {
				firstEOF = rec.EOFs[0].Seq
			}
			var pre []trace.Comparison
			for i := range rec.Comparisons {
				if rec.Comparisons[i].Seq < firstEOF {
					pre = append(pre, rec.Comparisons[i])
				}
			}
			if len(pre) > len(full.Comparisons) || !compsEqual(pre, full.Comparisons[:len(pre)]) {
				t.Errorf("input %q cut at %d: pre-EOF comparisons are not a prefix of the full run's", in, cut)
			}

			// (b) Monotone rejection offsets: feeding the parser a
			// longer prefix never moves the last *compared* offset —
			// the offset the fuzzer substitutes at — backwards. (EOF
			// probes are deliberately not counted: an accepted prefix
			// probes one past its end, which a trailing-garbage
			// rejection legitimately never compares.)
			r := rec.LastComparedIndex()
			if r < prev {
				t.Errorf("input %q cut at %d: last compared offset %d < %d at the previous cut", in, cut, r, prev)
			}
			prev = r
		}
		if r := full.LastComparedIndex(); r < prev {
			t.Errorf("input %q: full run's last compared offset %d < %d at the longest cut", in, r, prev)
		}

		// (c) Rejections without an EOF access are final: the parser
		// decided on what it read, so no suffix may change the verdict
		// or any part of the trace — comparisons, blocks, path hash,
		// stack depth. Full-record equivalence (not just comparison
		// equality) is what the prefix-decided execution cache
		// (core.Config.Cache) relies on when it replays a memoised
		// rejection for an extended input.
		if !full.Accepted() && len(full.EOFs) == 0 {
			for _, suffix := range []string{"0", "}~\n"} {
				ext := execute(e, append(append([]byte(nil), in...), suffix...))
				if ext.Accepted() {
					t.Errorf("input %q: non-EOF rejection was rescued by appending %q", in, suffix)
					continue
				}
				if !recordsEqual(full, ext) {
					t.Errorf("input %q: appending %q after a non-EOF rejection changed the trace", in, suffix)
				}
			}
		}
	}
}

// checkLexerRoundTrip: Render ∘ lex must be the identity on token
// streams — the invariant that makes mined-grammar generation emit
// candidates whose token structure the miner actually chose.
func checkLexerRoundTrip(t *testing.T, e registry.Entry, valids [][]byte) {
	g := mine.NewGrammar(e.Lexer)
	checked := 0
	for _, v := range valids {
		seq := e.Lexer(v)
		if again := e.Lexer(v); !lexemesEqual(seq, again) {
			t.Errorf("lexer is nondeterministic on %q", v)
		}
		if len(seq) == 0 {
			continue
		}
		rendered := g.Render(seq)
		if relexed := e.Lexer(rendered); !lexemesEqual(seq, relexed) {
			t.Errorf("round-trip broke on %q: rendered %q re-lexes differently", v, rendered)
		}
		checked++
	}
	if len(valids) > 0 && checked == 0 {
		t.Errorf("lexer produced no tokens for any of %d valid inputs", len(valids))
	}
}

func lexemesEqual(a, b []mine.Lexeme) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validsEqual compares two emission records entry by entry.
func validsEqual(a, b []core.Valid) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Input, b[i].Input) || a[i].Exec != b[i].Exec ||
			a[i].NewBlocks != b[i].NewBlocks {
			return false
		}
	}
	return true
}

// checkSound verifies emission soundness: every input an engine
// emitted as valid is accepted by a fresh subject instance.
func checkSound(t *testing.T, e registry.Entry, res *core.Result, label string) {
	for _, v := range res.Valids {
		if !execute(e, v.Input).Accepted() {
			t.Errorf("%s emitted %q as valid, but the subject rejects it", label, v.Input)
		}
	}
}

// checkEngineAgreement: a blocking run and sliced stepping are
// bit-identical; the hybrid campaign's exploration reproduces the
// pure campaign's corpus as a prefix; and both emit only genuinely
// accepted inputs.
func checkEngineAgreement(t *testing.T, e registry.Entry, o Options) {
	base := core.Config{Seed: o.Seed, MaxExecs: o.EngineExecs}

	w0 := core.New(e.New(), base).Run()
	checkSound(t, e, w0, "serial engine")

	stepped := core.NewCampaign(e.New(), base)
	for {
		if spent, more := stepped.Step(337); !more || spent == 0 {
			break
		}
	}
	if stepped.Fingerprint() != w0.Fingerprint() {
		t.Errorf("sliced stepping diverged from the blocking run")
	}

	hybrid := base
	hybrid.MinePhase = true
	hybrid.MineLexer = e.Lexer
	hybrid.MineBudget = o.EngineExecs / 4
	hybrid.MaxExecs = o.EngineExecs + hybrid.MineBudget
	hybrid.MineCadence = o.EngineExecs // one uninterrupted exploration phase
	hy := core.New(e.New(), hybrid).Run()
	checkSound(t, e, hy, "hybrid engine")
	if len(hy.Valids) < len(w0.Valids) || !validsEqual(hy.Valids[:len(w0.Valids)], w0.Valids) {
		t.Errorf("hybrid exploration is not corpus-identical to the pure campaign (%d vs %d valids)",
			len(hy.Valids), len(w0.Valids))
	}
}

// checkCacheTransparency: the prefix-decided execution cache
// (core.Config.Cache) must be invisible in every campaign observable —
// same corpus, same discovery indices, same coverage, same execution
// count — with the cache forced on versus off, on the plain serial
// engine and on the hybrid driver. This is the property that makes
// the cache's memoised rejections sound for this subject: a hit
// replays the facts a real execution would have produced, so only
// wall-clock changes. The counters themselves must account for every
// execution (hits + misses == execs with the cache on, both zero with
// it off).
func checkCacheTransparency(t *testing.T, e registry.Entry, o Options) {
	plain := core.Config{Seed: o.Seed, MaxExecs: o.EngineExecs, Cache: core.CacheOn}
	hybrid := plain
	hybrid.MinePhase = true
	hybrid.MineLexer = e.Lexer
	hybrid.MineBudget = o.EngineExecs / 4
	hybrid.MaxExecs = o.EngineExecs + hybrid.MineBudget

	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{{"plain", plain}, {"hybrid", hybrid}} {
		t.Run(tc.name, func(t *testing.T) {
			on := core.New(e.New(), tc.cfg).Run()
			offCfg := tc.cfg
			offCfg.Cache = core.CacheOff
			off := core.New(e.New(), offCfg).Run()

			if on.Fingerprint() != off.Fingerprint() || !validsEqual(on.Valids, off.Valids) || on.Execs != off.Execs {
				t.Errorf("cache on/off campaigns diverged: %d valids / %d execs vs %d / %d (fingerprints %#x vs %#x)",
					len(on.Valids), on.Execs, len(off.Valids), off.Execs, on.Fingerprint(), off.Fingerprint())
			}
			if on.CacheHits+on.CacheMisses != on.Execs {
				t.Errorf("cache-on counters do not account for every execution: %d hits + %d misses != %d execs",
					on.CacheHits, on.CacheMisses, on.Execs)
			}
			if off.CacheHits != 0 || off.CacheMisses != 0 {
				t.Errorf("cache-off campaign reported cache traffic: %d hits, %d misses", off.CacheHits, off.CacheMisses)
			}
		})
	}
}

// checkSnapshotResume: cut, marshal, restore, finish — the combined
// corpus must be bit-identical to the uninterrupted run's, on the
// plain serial engine and on the hybrid driver.
func checkSnapshotResume(t *testing.T, e registry.Entry, o Options) {
	plain := core.Config{Seed: o.Seed, MaxExecs: o.EngineExecs}
	hybrid := plain
	hybrid.MinePhase = true
	hybrid.MineLexer = e.Lexer
	hybrid.MineBudget = o.EngineExecs / 4
	hybrid.MaxExecs = o.EngineExecs + hybrid.MineBudget
	hybrid.MineCadence = o.EngineExecs / 2 // interleaved, to cut mid-drive

	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{{"plain", plain}, {"hybrid", hybrid}} {
		t.Run(tc.name, func(t *testing.T) {
			want := core.New(e.New(), tc.cfg).Run()

			first := core.NewCampaign(e.New(), tc.cfg)
			cutAt := tc.cfg.MaxExecs * 2 / 5
			for first.Result().Execs < cutAt {
				if _, more := first.Step(199); !more {
					t.Fatalf("campaign finished before the cut at %d execs", first.Result().Execs)
				}
			}
			blob, err := first.Snapshot().Marshal()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			snap, err := core.UnmarshalSnapshot(blob)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			resumed, err := core.Restore(e.New(), core.Config{MineLexer: e.Lexer}, snap)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			for {
				if spent, more := resumed.Step(173); !more || spent == 0 {
					break
				}
			}
			got := resumed.Result()
			if got.Fingerprint() != want.Fingerprint() || !validsEqual(got.Valids, want.Valids) {
				t.Errorf("resumed campaign is not corpus-identical: %d valids / %d execs, want %d / %d",
					len(got.Valids), got.Execs, len(want.Valids), want.Execs)
			}
		})
	}
}
