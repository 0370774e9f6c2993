// Package trace is the instrumentation runtime that parsers under test
// are written against. It is the Go equivalent of pFuzzer's LLVM
// instrumentation (paper §4): it records
//
//  1. every comparison of tainted input data against expected values
//     (character equality, character ranges, character sets, and
//     wrapped strcmp-style string comparisons),
//  2. every attempted access past the end of the input (interpreted as
//     the program encountering EOF before processing is complete),
//  3. the sequence of basic blocks executed (branch coverage), and
//  4. the call-stack depth at each comparison.
//
// A Tracer is created per execution. Subjects read input through At
// and report control flow through Block/Enter/Leave; all comparison
// helpers both perform the comparison and record it.
package trace

import "pfuzzer/internal/taint"

// CmpKind classifies a recorded comparison.
type CmpKind uint8

const (
	// CmpCharEq is a single-character equality test, c == 'x'.
	CmpCharEq CmpKind = iota
	// CmpCharRange is a range test, lo <= c && c <= hi.
	CmpCharRange
	// CmpCharSet is a set-membership test, strchr(set, c) != NULL.
	CmpCharSet
	// CmpStrEq is a wrapped string comparison, strcmp(s, "while") == 0.
	CmpStrEq
)

// String returns a short human-readable name for the kind.
func (k CmpKind) String() string {
	switch k {
	case CmpCharEq:
		return "char=="
	case CmpCharRange:
		return "range"
	case CmpCharSet:
		return "set"
	case CmpStrEq:
		return "strcmp"
	}
	return "unknown"
}

// Comparison is one recorded comparison of tainted data against an
// expected value. Index is the input offset of the first compared
// character and Last the offset of the last one (they differ only for
// string comparisons). Expected holds the literal for CmpCharEq and
// CmpStrEq, the two bounds for CmpCharRange, and the member bytes for
// CmpCharSet.
type Comparison struct {
	Kind     CmpKind
	Index    int
	Last     int
	Actual   []byte
	Expected []byte
	Matched  bool
	Stack    int
	Seq      int
}

// EOFAccess records an attempted read at input offset Index, where
// Index is at or past the end of the input: the parser expected more
// characters.
type EOFAccess struct {
	Index int
	Stack int
	Seq   int
}

// BlockHit is one execution of an instrumented basic block.
type BlockHit struct {
	ID  uint32
	Seq int
}

// EdgeMapSize is the size of the AFL-style edge-coverage bitmap.
const EdgeMapSize = 1 << 16

// Options configures what a Tracer records. Recording comparisons and
// block sequences costs memory per event; the AFL baseline, which only
// consumes the edge bitmap, turns them off.
type Options struct {
	// Comparisons enables recording of comparison and EOF events.
	Comparisons bool
	// Blocks enables recording of the ordered block-hit sequence.
	Blocks bool
	// Edges enables the AFL-style bucketed edge bitmap.
	Edges bool
	// MaxComparisons bounds the number of recorded comparisons
	// (0 means no bound); excess comparisons still execute, they are
	// just not recorded.
	MaxComparisons int
	// ExecSteps bounds the number of interpreter steps subjects may
	// take after parsing (0 means the subject's default).
	ExecSteps int
}

// Tracer collects the instrumentation events of one execution of a
// subject on one input.
type Tracer struct {
	input []byte
	opts  Options
	sink  *Sink

	comps  []Comparison
	eofs   []EOFAccess
	blocks []BlockHit
	bytes  []byte // arena backing the comparisons' Actual/Expected

	blockSet  map[uint32]int // block ID -> seq of first hit
	pathHash  uint64
	edges     []byte
	prevBlock uint32

	depth    int
	maxDepth int
	seq      int

	// Deciding-prefix bookkeeping (Record.Decided). maxAccess is the
	// largest in-bounds offset the subject read through At; eofSeen
	// marks any out-of-bounds access (tracked independently of the
	// Comparisons option, which gates only the EOFs event list);
	// lenUsed marks consultation of Len or Input, after which the
	// run's behaviour may depend on the input's total length;
	// undecided force-disqualifies the run from prefix-decidedness
	// (MarkUndecided), for executions whose real behaviour could not
	// be observed.
	maxAccess int
	eofSeen   bool
	lenUsed   bool
	undecided bool
}

// New returns a Tracer for one execution on input, recording according
// to opts. It delegates to a single-use Sink so there is exactly one
// initialization path for both fresh and sink-backed tracers; the
// throwaway sink is never reused, so the resulting Record stays valid
// indefinitely.
func New(input []byte, opts Options) *Tracer {
	return new(Sink).New(input, opts)
}

// Sink is a reusable event buffer for executing many subjects in a
// row without re-allocating the per-execution slices and maps. Each
// pFuzzer campaign (core.Fuzzer) owns one Sink, used only by the
// goroutine stepping that campaign, so trace collection shares no
// state between campaigns.
//
// A Sink must not be used by two Tracers at the same time: the Record
// produced by Finish aliases the sink's buffers — including every
// Comparison's Actual/Expected bytes, which live in the sink's arena,
// and the *Record itself, which is stored in the sink — and is valid
// only until the sink's next New call. Callers that need run facts
// beyond that point must copy them out first (the engine's factsOf
// deep-copies the comparison bytes it keeps).
type Sink struct {
	tracer   Tracer
	rec      Record
	comps    []Comparison
	eofs     []EOFAccess
	blocks   []BlockHit
	bytes    []byte
	blockSet map[uint32]int
	edges    []byte
}

// New returns a Tracer recording into s's reusable buffers.
func (s *Sink) New(input []byte, opts Options) *Tracer {
	t := &s.tracer
	*t = Tracer{
		input:     input,
		opts:      opts,
		sink:      s,
		comps:     s.comps[:0],
		eofs:      s.eofs[:0],
		blocks:    s.blocks[:0],
		bytes:     s.bytes[:0],
		pathHash:  fnvOffset,
		maxAccess: -1,
	}
	if opts.Blocks || opts.Comparisons {
		if s.blockSet == nil {
			s.blockSet = make(map[uint32]int)
		} else {
			clear(s.blockSet)
		}
		t.blockSet = s.blockSet
	}
	if opts.Edges {
		if s.edges == nil {
			s.edges = make([]byte, EdgeMapSize)
		} else {
			clear(s.edges)
		}
		t.edges = s.edges
	}
	return t
}

// Full returns recording options suitable for pFuzzer: everything on.
func Full() Options { return Options{Comparisons: true, Blocks: true, Edges: false} }

// Input returns the raw input under execution. Like Len it marks the
// run length-dependent for the deciding-prefix analysis: the caller
// saw the whole input at once.
func (t *Tracer) Input() []byte { t.lenUsed = true; return t.input }

// Len returns the input length, marking the run length-dependent for
// the deciding-prefix analysis (Record.Decided): a parser that has
// consulted the total length may behave differently on an extended
// input even when the extension's bytes are never read.
func (t *Tracer) Len() int { t.lenUsed = true; return len(t.input) }

// RawInput returns the input under execution without marking the run
// length-dependent for the deciding-prefix analysis. It is reserved
// for execution harnesses — the out-of-process shim (internal/shim)
// reads the input here to forward it to the real parser, whose own
// reads decide length-dependence. A subject must never use it: hiding
// a length consultation from the analysis would make prefix-decided
// cache replays unsound.
func (t *Tracer) RawInput() []byte { return t.input }

// MarkUndecided forces the run to be treated as not prefix-decided,
// whatever else was recorded. Execution harnesses call it when the
// subject's real behaviour could not be observed — a child process
// crashed, hung past its deadline, or spoke garbage — so the
// substitute verdict they return can never be memoised as a deciding
// prefix (an empty crash trace would otherwise read as "rejected
// after zero bytes", poisoning the cache for every input).
func (t *Tracer) MarkUndecided() { t.undecided = true }

// At reads the input character at offset i. If i is past the end of
// the input it records an EOF access and returns ok == false; this is
// how the fuzzer learns that the parser expected more input.
func (t *Tracer) At(i int) (taint.Char, bool) {
	if i >= len(t.input) || i < 0 {
		t.eofSeen = true
		if t.opts.Comparisons {
			t.seq++
			t.eofs = append(t.eofs, EOFAccess{Index: i, Stack: t.depth, Seq: t.seq})
		}
		return taint.Char{B: 0, Origin: taint.NoOrigin}, false
	}
	if i > t.maxAccess {
		t.maxAccess = i
	}
	return taint.Char{B: t.input[i], Origin: i}, true
}

// The arena helpers append comparison payload bytes to the tracer's
// reusable byte buffer and return a capacity-capped view. A later
// append may grow (reallocate) the buffer, but previously returned
// views keep pointing into the old backing array, so they stay valid;
// only the *next* execution's New call recycles the memory. Before the
// arena, every recorded comparison allocated its Actual and Expected
// slices individually — the dominant per-exec allocation source on
// comparison-dense subjects.

func (t *Tracer) arena1(b byte) []byte {
	t.bytes = append(t.bytes, b)
	return t.bytes[len(t.bytes)-1 : len(t.bytes) : len(t.bytes)]
}

func (t *Tracer) arena2(a, b byte) []byte {
	t.bytes = append(t.bytes, a, b)
	return t.bytes[len(t.bytes)-2 : len(t.bytes) : len(t.bytes)]
}

func (t *Tracer) arenaStr(s string) []byte {
	n := len(t.bytes)
	t.bytes = append(t.bytes, s...)
	return t.bytes[n : n+len(s) : n+len(s)]
}

// record appends a comparison if recording is enabled and within bounds.
func (t *Tracer) record(c Comparison) {
	if !t.opts.Comparisons {
		return
	}
	if t.opts.MaxComparisons > 0 && len(t.comps) >= t.opts.MaxComparisons {
		return
	}
	t.seq++
	c.Seq = t.seq
	c.Stack = t.depth
	t.comps = append(t.comps, c)
}

// CharEq compares c against want, recording the comparison when c is
// tainted. It returns the comparison outcome.
func (t *Tracer) CharEq(c taint.Char, want byte) bool {
	ok := c.B == want
	if c.Tainted() {
		t.record(Comparison{
			Kind:     CmpCharEq,
			Index:    c.Origin,
			Last:     c.Origin,
			Actual:   t.arena1(c.B),
			Expected: t.arena1(want),
			Matched:  ok,
		})
	}
	return ok
}

// CharRange compares lo <= c <= hi, recording the comparison when c is
// tainted.
func (t *Tracer) CharRange(c taint.Char, lo, hi byte) bool {
	ok := c.B >= lo && c.B <= hi
	if c.Tainted() {
		t.record(Comparison{
			Kind:     CmpCharRange,
			Index:    c.Origin,
			Last:     c.Origin,
			Actual:   t.arena1(c.B),
			Expected: t.arena2(lo, hi),
			Matched:  ok,
		})
	}
	return ok
}

// CharSet tests c for membership in set, recording the comparison when
// c is tainted.
func (t *Tracer) CharSet(c taint.Char, set string) bool {
	ok := false
	for i := 0; i < len(set); i++ {
		if set[i] == c.B {
			ok = true
			break
		}
	}
	if c.Tainted() {
		t.record(Comparison{
			Kind:     CmpCharSet,
			Index:    c.Origin,
			Last:     c.Origin,
			Actual:   t.arena1(c.B),
			Expected: t.arenaStr(set),
			Matched:  ok,
		})
	}
	return ok
}

// StrEq is the wrapped strcmp: it compares the accumulated (tainted)
// string s against the literal want and records a single comparison
// spanning all of s's origins. Substituting the whole literal at the
// span start is what lets the fuzzer synthesize keywords (paper §6.2,
// AFL-CTP discussion).
func (t *Tracer) StrEq(s taint.String, want string) bool {
	// Compare in place rather than via s.Text(), which would allocate a
	// byte slice and a string per call on the subject's hot path.
	ok := len(s) == len(want)
	if ok {
		for i := range s {
			if s[i].B != want[i] {
				ok = false
				break
			}
		}
	}
	if first := s.FirstOrigin(); first != taint.NoOrigin {
		last := s.LastOrigin()
		n := len(t.bytes)
		for i := range s {
			t.bytes = append(t.bytes, s[i].B)
		}
		t.record(Comparison{
			Kind:     CmpStrEq,
			Index:    first,
			Last:     last,
			Actual:   t.bytes[n : n+len(s) : n+len(s)],
			Expected: t.arenaStr(want),
			Matched:  ok,
		})
	}
	return ok
}

// fnv-1a constants for the 64-bit path hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Block records the execution of basic block id. Duplicate hits of the
// same block do not extend the path hash, implementing the paper's
// "non-duplicate branches" path identity (§3.2).
func (t *Tracer) Block(id uint32) {
	t.seq++
	if t.blockSet != nil {
		if _, seen := t.blockSet[id]; !seen {
			t.blockSet[id] = t.seq
			h := t.pathHash
			h ^= uint64(id)
			h *= fnvPrime
			t.pathHash = h
		}
	}
	if t.opts.Blocks {
		t.blocks = append(t.blocks, BlockHit{ID: id, Seq: t.seq})
	}
	if t.edges != nil {
		cur := mix32(id)
		e := (t.prevBlock >> 1) ^ cur
		i := e & (EdgeMapSize - 1)
		if t.edges[i] < 255 {
			t.edges[i]++
		}
		t.prevBlock = cur
	}
}

// mix32 spreads small block IDs over the edge map, mimicking AFL's
// random per-block location values.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// Enter records entry into a parser function (the stack grows).
func (t *Tracer) Enter() {
	t.depth++
	if t.depth > t.maxDepth {
		t.maxDepth = t.depth
	}
}

// Leave records return from a parser function.
func (t *Tracer) Leave() { t.depth-- }

// Depth returns the current instrumented call-stack depth.
func (t *Tracer) Depth() int { return t.depth }

// ExecSteps returns the configured interpreter step budget, or def if
// unset.
func (t *Tracer) ExecSteps(def int) int {
	if t.opts.ExecSteps > 0 {
		return t.opts.ExecSteps
	}
	return def
}

// Record is the outcome of one traced execution.
type Record struct {
	Input       []byte
	Exit        int
	Comparisons []Comparison
	EOFs        []EOFAccess
	Blocks      []BlockHit
	BlockFirst  map[uint32]int
	PathHash    uint64
	Edges       []byte
	MaxDepth    int

	// Decided is the length of the input prefix that fully decided
	// this execution's outcome, or -1 when the run was not
	// prefix-decided (see DecidedPrefix). It is what the execution
	// cache (internal/pcache) keys memoised rejections on.
	Decided int

	// MaxAccess and LenUsed expose the deciding-prefix inputs the
	// Decided verdict was computed from: the largest in-bounds offset
	// read through At (-1 if none) and whether the run consulted the
	// input's total length. The out-of-process shim forwards them in
	// its RESULT frame so a replayed trace reproduces Decided exactly.
	MaxAccess int
	LenUsed   bool
}

// Finish seals the tracer into a Record with exit status exit. The
// Record lives in the tracer's sink and aliases the sink's buffers:
// both are valid only until the sink's next New call. (Records from
// trace.New stay valid indefinitely — their single-use sink is never
// reused.)
func (t *Tracer) Finish(exit int) *Record {
	// Hand the possibly grown slices back so the sink retains their
	// capacity for the next execution.
	t.sink.comps = t.comps
	t.sink.eofs = t.eofs
	t.sink.blocks = t.blocks
	t.sink.bytes = t.bytes
	// A rejection is prefix-decided when the parser never probed past
	// the end of the input (an EOF access means the verdict hinged on
	// where the input stops, not on what it holds) and either never
	// consulted the total length, or read every byte through the final
	// one — in which case the deciding prefix is the whole input and
	// the subject contract's suffix-proof-rejection property
	// (internal/conformance, prefix check (c)) guarantees extensions
	// replay the identical trace. Acceptances are never prefix-decided:
	// accepting parsers probe for or measure the input's end, so their
	// verdict is inherently length-dependent.
	decided := -1
	if exit != 0 && !t.undecided && !t.eofSeen && (!t.lenUsed || t.maxAccess+1 == len(t.input)) {
		decided = t.maxAccess + 1
	}
	// The Record is sink-owned like every other per-execution buffer:
	// returning &sink.rec instead of a fresh allocation saves one heap
	// object per execution, and tightens no contract — the record
	// already aliased the sink's slices, so its lifetime was bounded by
	// the next New call regardless.
	t.sink.rec = Record{
		Input:       t.input,
		Exit:        exit,
		Comparisons: t.comps,
		EOFs:        t.eofs,
		Blocks:      t.blocks,
		BlockFirst:  t.blockSet,
		PathHash:    t.pathHash,
		Edges:       t.edges,
		MaxDepth:    t.maxDepth,
		Decided:     decided,
		MaxAccess:   t.maxAccess,
		LenUsed:     t.lenUsed,
	}
	return &t.sink.rec
}

// Accepted reports whether the execution accepted the input as valid.
func (r *Record) Accepted() bool { return r.Exit == 0 }

// DecidedPrefix returns the number of leading input bytes that fully
// determined this execution's outcome and trace, and whether the run
// was prefix-decided at all. When it reports (d, true), any input of
// length >= d sharing those d bytes is rejected with the identical
// comparisons, blocks and path hash — the property the prefix-decided
// execution cache rests on, machine-checked per subject by
// internal/conformance.
func (r *Record) DecidedPrefix() (int, bool) {
	if r.Decided < 0 {
		return 0, false
	}
	return r.Decided, true
}

// LastComparedIndex returns the largest input offset touched by any
// comparison, or -1 if no tainted comparison was recorded.
func (r *Record) LastComparedIndex() int {
	last := -1
	for i := range r.Comparisons {
		if r.Comparisons[i].Last > last {
			last = r.Comparisons[i].Last
		}
	}
	return last
}

// EOFAtEnd reports whether the parser attempted to read at or past
// len(Input): it wanted more characters.
func (r *Record) EOFAtEnd() bool {
	for _, e := range r.EOFs {
		if e.Index >= len(r.Input) {
			return true
		}
	}
	return false
}

// AvgStackLastTwo returns the mean instrumented stack depth of the
// last two comparisons (paper §3.1, avgStackSize). With fewer than two
// comparisons it degrades gracefully.
func (r *Record) AvgStackLastTwo() float64 {
	n := len(r.Comparisons)
	switch n {
	case 0:
		return 0
	case 1:
		return float64(r.Comparisons[0].Stack)
	}
	return float64(r.Comparisons[n-1].Stack+r.Comparisons[n-2].Stack) / 2
}
