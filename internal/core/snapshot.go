package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"pfuzzer/internal/subject"
)

// countedSource wraps the standard PRNG source and counts draws, so a
// Snapshot can record the stream position and Restore can fast-forward
// a fresh source to it. It deliberately does not implement
// rand.Source64: rand.Rand then derives every value (Intn, Float64,
// even Uint64) from Int63 alone, so one counter replays the stream
// exactly — and since the campaign only ever consumes Int63-derived
// values, wrapping changes nothing about the emitted numbers, keeping
// the golden sequences intact.
type countedSource struct {
	src   rand.Source
	draws uint64
}

func (c *countedSource) Int63() int64 { c.draws++; return c.src.Int63() }
func (c *countedSource) Seed(s int64) { c.src.Seed(s) }

// snapshotVersion is the in-memory layout a Snapshot describes and
// the only one Marshal writes (the binary v2 encoding, snapcodec.go).
// UnmarshalSnapshot also decodes version 1 JSON, converting it to this
// layout; Restore rejects any other version.
const snapshotVersion = 2

// SavedConfig is the serializable subset of Config a Snapshot carries,
// so resuming a campaign needs no re-specification of its knobs. The
// function-valued fields (Events, MineLexer) cannot be serialized and
// are re-supplied by Restore's cfg argument.
//
// Workers, BatchSize, SpecDepth, Shards and Generation are knobs of
// retired in-campaign parallel engines. They never changed what a
// campaign computes, so snapshots that carry them decode, keep them
// (the header re-encodes to its own bytes) and restore onto the one
// serial engine; nothing writes them any more.
type SavedConfig struct {
	Seed          int64    `json:"seed"`
	MaxExecs      int      `json:"max_execs"`
	MaxValids     int      `json:"max_valids,omitempty"`
	MaxLen        int      `json:"max_len"`
	MaxQueue      int      `json:"max_queue"`
	Charset       []byte   `json:"charset"`
	DeadlineNS    int64    `json:"deadline_ns,omitempty"`
	Cache         int      `json:"cache,omitempty"`
	Workers       int      `json:"workers,omitempty"`
	BatchSize     int      `json:"batch_size,omitempty"`
	SpecDepth     int      `json:"spec_depth,omitempty"`
	Shards        int      `json:"shards,omitempty"`
	Generation    int      `json:"generation,omitempty"`
	MinePhase     bool     `json:"mine_phase,omitempty"`
	MineBudget    int      `json:"mine_budget,omitempty"`
	MineMaxTokens int      `json:"mine_max_tokens,omitempty"`
	MineCadence   int      `json:"mine_cadence,omitempty"`
	MineSeeds     [][]byte `json:"mine_seeds,omitempty"`

	NoLengthTerm       bool `json:"no_length_term,omitempty"`
	NoReplacementBonus bool `json:"no_replacement_bonus,omitempty"`
	NoStackTerm        bool `json:"no_stack_term,omitempty"`
	NoParentsTerm      bool `json:"no_parents_term,omitempty"`
	NoPathNovelty      bool `json:"no_path_novelty,omitempty"`
	CoverageOnly       bool `json:"coverage_only,omitempty"`
	BFS                bool `json:"bfs,omitempty"`
}

func savedConfig(c *Config) SavedConfig {
	return SavedConfig{
		Seed: c.Seed, MaxExecs: c.MaxExecs, MaxValids: c.MaxValids,
		MaxLen: c.MaxLen, MaxQueue: c.MaxQueue, Charset: c.Charset,
		DeadlineNS: int64(c.Deadline), Cache: int(c.Cache),
		MinePhase: c.MinePhase, MineBudget: c.MineBudget,
		MineMaxTokens: c.MineMaxTokens, MineCadence: c.MineCadence, MineSeeds: c.MineSeeds,
		NoLengthTerm: c.NoLengthTerm, NoReplacementBonus: c.NoReplacementBonus,
		NoStackTerm: c.NoStackTerm, NoParentsTerm: c.NoParentsTerm,
		NoPathNovelty: c.NoPathNovelty, CoverageOnly: c.CoverageOnly, BFS: c.BFS,
	}
}

func (sc *SavedConfig) config() Config {
	return Config{
		Seed: sc.Seed, MaxExecs: sc.MaxExecs, MaxValids: sc.MaxValids,
		MaxLen: sc.MaxLen, MaxQueue: sc.MaxQueue, Charset: sc.Charset,
		Deadline: time.Duration(sc.DeadlineNS), Cache: CacheMode(sc.Cache),
		MinePhase: sc.MinePhase, MineBudget: sc.MineBudget,
		MineMaxTokens: sc.MineMaxTokens, MineCadence: sc.MineCadence, MineSeeds: sc.MineSeeds,
		NoLengthTerm: sc.NoLengthTerm, NoReplacementBonus: sc.NoReplacementBonus,
		NoStackTerm: sc.NoStackTerm, NoParentsTerm: sc.NoParentsTerm,
		NoPathNovelty: sc.NoPathNovelty, CoverageOnly: sc.CoverageOnly, BFS: sc.BFS,
	}
}

// SnapValid is one emitted valid input in a Snapshot.
type SnapValid struct {
	Input     []byte `json:"input"`
	NewBlocks int    `json:"new_blocks"`
	Exec      int    `json:"exec"`
}

// SnapParent is one entry of a Snapshot's parent table: the facts of
// one parent run, which every child derived from that run shares.
type SnapParent struct {
	Blks  []uint32 // the parent's trimmed covered blocks
	Stack float64  // its average stack depth at the last two comparisons
	Path  uint64   // its path hash
}

// SnapCandidate is one queued (or popped) search candidate in a
// Snapshot. Parent indexes the snapshot's ParentTable from 1; 0 means
// the candidate carries no parent facts (a restart or mined input).
type SnapCandidate struct {
	Input       []byte
	Replacement []byte
	Parent      int
	Parents     int // substitutions on the search path
	Retries     int
	MineGen     int
	Score       float64
}

// PathCount is one path-frequency entry in a Snapshot.
type PathCount struct {
	Hash  uint64 `json:"hash"`
	Count int    `json:"count"`
}

// SnapHybrid is the hybrid phase driver's between-phase state. The
// grammar itself is not serialized: Restore rebuilds it by replaying
// MineSeeds and the first Fed valids through the incremental miner,
// which reproduces the automaton exactly.
type SnapHybrid struct {
	Fed         int      `json:"fed"`
	ExploreLeft int      `json:"explore_left"`
	MineLeft    int      `json:"mine_left"`
	SliceLeft   int      `json:"slice_left"`
	Stage       int      `json:"stage"`
	PhaseActive bool     `json:"phase_active"`
	PhaseCap    int      `json:"phase_cap"`
	PhaseMining bool     `json:"phase_mining"`
	PhaseKind   int      `json:"phase_kind"`
	PhaseRound  int      `json:"phase_round"`
	Emitted     [][]byte `json:"-"` // GenerateBatch's hand-out dedup set, sorted
}

// Snapshot is a serializable image of a campaign between Steps, and
// it is exact: a campaign restored from a snapshot continues with the
// same queue, dedup sets, cursor and RNG stream position, so the
// combined run is bit-identical to an uninterrupted one.
//
// The tagged scalar fields form the JSON header of the binary
// encoding; the bulk state (untagged) is written in its binary
// sections (see snapcodec.go). Candidates reference their shared
// parent-run facts through ParentTable, and Seen holds only the
// dedup-set inputs that are not queued: Restore adds every queued
// input back. A version 1 snapshot decodes with its full dedup set in
// Seen, which restores the same set.
type Snapshot struct {
	Version int         `json:"version"`
	Config  SavedConfig `json:"config"`

	Execs         int    `json:"execs"`
	CacheHits     int    `json:"cache_hits,omitempty"`
	CacheMisses   int    `json:"cache_misses,omitempty"`
	CacheRetired  bool   `json:"cache_retired,omitempty"`
	CacheCheckAt  int    `json:"cache_check_at,omitempty"`
	ElapsedNS     int64  `json:"elapsed_ns"`
	ExecElapsedNS int64  `json:"exec_elapsed_ns,omitempty"`
	RNGDraws      uint64 `json:"rng_draws"`
	Phases        int    `json:"phases,omitempty"` // retired; always 0 when written, ignored on restore
	Began         bool   `json:"began"`
	LongestValid  int    `json:"longest_valid,omitempty"`
	MiningActive  bool   `json:"mining_active,omitempty"`

	// The engine loop's cursor.
	SStarted   bool   `json:"s_started"`
	SInput     []byte `json:"s_input,omitempty"`
	SExt       []byte `json:"s_ext,omitempty"`
	CurParents int    `json:"cur_parents,omitempty"`
	CurMineGen int    `json:"cur_mine_gen,omitempty"`

	Hybrid *SnapHybrid `json:"hybrid,omitempty"`

	Valids      []SnapValid     `json:"-"`
	Coverage    []uint32        `json:"-"`
	VBr         []uint32        `json:"-"`
	Seen        [][]byte        `json:"-"` // dedup-set inputs not in Queue, sorted
	PathSeen    []PathCount     `json:"-"`
	ParentTable []SnapParent    `json:"-"`
	Queue       []SnapCandidate `json:"-"` // in insertion (FIFO tie-break) order
	SCur        *SnapCandidate  `json:"-"` // candidate SInput was popped as
}

// Marshal encodes the snapshot in the binary version 2 layout for
// persistence (see internal/corpus and snapcodec.go).
func (s *Snapshot) Marshal() ([]byte, error) {
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, this build writes %d", s.Version, snapshotVersion)
	}
	return encodeSnapshot(s)
}

// UnmarshalSnapshot decodes a snapshot written by Marshal, or a
// version 1 JSON snapshot written by earlier builds. It fails closed:
// truncated, trailing or non-canonical bytes are an error, never a
// panic, and no length is trusted beyond the bytes present.
func UnmarshalSnapshot(b []byte) (*Snapshot, error) {
	var (
		s   *Snapshot
		err error
	)
	switch {
	case len(b) == 0:
		err = errors.New("empty snapshot")
	case b[0] == '{':
		s, err = decodeSnapshotV1(b)
	case len(b) >= len(snapMagic) && string(b[:len(snapMagic)]) == snapMagic:
		s, err = decodeSnapshot(b[len(snapMagic):])
	default:
		err = fmt.Errorf("unknown leading byte %#02x", b[0])
	}
	if err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return s, nil
}

func sortedIDs(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Snapshot captures the campaign's full state. It must only be called
// between Steps (never concurrently with one). Map-backed sets are emitted sorted so snapshot bytes are stable.
func (c *Campaign) Snapshot() *Snapshot {
	f := c.f
	s := &Snapshot{
		Version:       snapshotVersion,
		Config:        savedConfig(&f.cfg),
		Execs:         f.res.Execs,
		CacheHits:     f.res.CacheHits,
		CacheMisses:   f.res.CacheMisses,
		CacheRetired:  f.res.CacheRetired,
		CacheCheckAt:  f.cacheCheckAt,
		ExecElapsedNS: int64(f.res.ExecElapsed),
		ElapsedNS:     int64(f.clock.Active()),
		RNGDraws:      f.cs.draws,
		Began:         f.began,
		LongestValid:  f.longestValid,
		MiningActive:  f.miningActive,
		SStarted:      f.sStarted,
		SInput:        append([]byte(nil), f.sInput...),
		SExt:          append([]byte(nil), f.sExt...),
		CurParents:    f.curParents,
		CurMineGen:    f.curMineGen,
	}
	s.Valids = make([]SnapValid, len(f.res.Valids))
	for i := range f.res.Valids {
		v := &f.res.Valids[i]
		s.Valids[i] = SnapValid{Input: v.Input, NewBlocks: v.NewBlocks, Exec: v.Exec}
	}
	if f.res.Coverage != nil {
		s.Coverage = sortedIDs(f.res.Coverage)
	}
	s.VBr = f.vBr.ids() // ascending by construction
	s.PathSeen = make([]PathCount, 0, len(f.pathSeen))
	for h, n := range f.pathSeen {
		s.PathSeen = append(s.PathSeen, PathCount{Hash: h, Count: *n})
	}
	slices.SortFunc(s.PathSeen, func(a, b PathCount) int { return cmp.Compare(a.Hash, b.Hash) })

	// One table entry per distinct parentFacts, numbered in order of
	// first reference, so siblings keep sharing one entry (and, after
	// Restore, one memo) instead of each repeating the parent's blocks.
	// Siblings are pushed together, so most lookups hit the last parent.
	parentIdx := make(map[*parentFacts]int)
	var lastParent *parentFacts
	lastIdx := 0
	snapCand := func(cd *candidate, score float64) SnapCandidate {
		in := f.inputs.input(cd.pos)
		sub := f.inputs.sub(cd.pos)
		sc := SnapCandidate{
			Input: in, Replacement: in[sub : sub+int(cd.replLen)],
			Parents: int(cd.parents), Retries: int(cd.retries), MineGen: int(cd.mineGen),
			Score: score,
		}
		if p := cd.parent; p != nil {
			if p != lastParent {
				i, ok := parentIdx[p]
				if !ok {
					s.ParentTable = append(s.ParentTable, SnapParent{Blks: p.blks, Stack: p.stack, Path: p.path})
					i = len(s.ParentTable)
					parentIdx[p] = i
				}
				lastParent, lastIdx = p, i
			}
			sc.Parent = lastIdx
		}
		return sc
	}
	// Seen keeps the arena inputs the queue does not hold: a bitset over
	// arena positions, marked from the queued candidates, picks them out.
	items := f.queue.Dump()
	s.Queue = make([]SnapCandidate, len(items))
	queued := make([]uint64, (f.inputs.len()+63)/64)
	for i, it := range items {
		pos := it.Value.pos
		queued[pos/64] |= 1 << (pos % 64)
		s.Queue[i] = snapCand(it.Value, it.Score)
	}
	s.Seen = make([][]byte, 0, f.inputs.len()-len(items))
	for pos := range uint32(f.inputs.len()) {
		if queued[pos/64]&(1<<(pos%64)) == 0 {
			s.Seen = append(s.Seen, f.inputs.input(pos))
		}
	}
	slices.SortFunc(s.Seen, bytes.Compare)
	if f.sCur != nil {
		// The popped score rides along so the layout keeps its score
		// field; it never affects what the campaign computes.
		sc := snapCand(f.sCur, f.sCurScore)
		s.SCur = &sc
	}
	if f.hyb != nil {
		h := f.hyb
		s.Hybrid = &SnapHybrid{
			Fed: h.fed, ExploreLeft: h.exploreLeft, MineLeft: h.mineLeft,
			SliceLeft: h.sliceLeft, Stage: h.stage, PhaseActive: h.phaseActive,
			PhaseCap: h.phaseCap, PhaseMining: h.phaseMining,
			PhaseKind: h.phaseKind, PhaseRound: h.phaseRound,
			Emitted: h.g.Emitted(),
		}
	}
	return s
}

// maxDrawsPerExec and maxRNGDraws bound the RNG position Restore will
// fast-forward to, at about 3.3 ns a draw on a 2-core x86 host.
// Campaigns draw at most ~7 values per execution on every built-in
// subject at the default knobs (hybrid mjs is the peak; a mining
// round draws about MineMaxTokens/4 per execution), so the per-exec
// bound leaves two orders of magnitude of headroom. The absolute one
// caps a crafted snapshot's fast-forward near 3.5 s and still admits
// campaigns of over a hundred million executions.
const (
	maxDrawsPerExec = 1024
	maxRNGDraws     = 1 << 30
)

// validate rejects field values no campaign can have produced before
// Restore does any work that depends on them: negative counters, an
// RNG position out of proportion to the executions, a parent index
// outside the table, or a hybrid stage the driver has no case for.
func (s *Snapshot) validate() error {
	if s.Version != snapshotVersion {
		return fmt.Errorf("snapshot version %d, this build writes %d", s.Version, snapshotVersion)
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"execs", int64(s.Execs)}, {"cache_hits", int64(s.CacheHits)},
		{"cache_misses", int64(s.CacheMisses)}, {"cache_check_at", int64(s.CacheCheckAt)},
		{"elapsed_ns", s.ElapsedNS}, {"exec_elapsed_ns", s.ExecElapsedNS},
		{"phases", int64(s.Phases)}, {"longest_valid", int64(s.LongestValid)},
		{"cur_parents", int64(s.CurParents)}, {"cur_mine_gen", int64(s.CurMineGen)},
	} {
		if c.v < 0 {
			return fmt.Errorf("negative %s %d", c.name, c.v)
		}
	}
	if s.RNGDraws > maxRNGDraws || s.RNGDraws/maxDrawsPerExec > uint64(s.Execs) {
		return fmt.Errorf("rng_draws %d out of range for %d execs", s.RNGDraws, s.Execs)
	}
	for i := range s.Valids {
		if v := &s.Valids[i]; v.NewBlocks < 0 || v.Exec < 0 {
			return fmt.Errorf("valid %d: negative new_blocks %d or exec %d", i, v.NewBlocks, v.Exec)
		}
	}
	for _, pc := range s.PathSeen {
		if pc.Count < 0 {
			return fmt.Errorf("path %#x: negative count %d", pc.Hash, pc.Count)
		}
	}
	checkCand := func(sc *SnapCandidate) error {
		if sc.Parent < 0 || sc.Parent > len(s.ParentTable) {
			return fmt.Errorf("parent index %d outside a table of %d", sc.Parent, len(s.ParentTable))
		}
		for _, v := range []int{sc.Parents, sc.Retries, sc.MineGen} {
			if v < 0 || v > math.MaxInt32 {
				return fmt.Errorf("parents %d, retries %d or mine_gen %d outside [0, 2^31)", sc.Parents, sc.Retries, sc.MineGen)
			}
		}
		if !bytes.Contains(sc.Input, sc.Replacement) {
			// A substitution child holds its replacement, and a candidate
			// keeps only where in its input the replacement sits.
			return fmt.Errorf("replacement %q is not part of input %q", sc.Replacement, sc.Input)
		}
		return nil
	}
	for i := range s.Queue {
		if err := checkCand(&s.Queue[i]); err != nil {
			return fmt.Errorf("queue[%d]: %w", i, err)
		}
	}
	if s.SCur != nil {
		if err := checkCand(s.SCur); err != nil {
			return fmt.Errorf("s_cur: %w", err)
		}
	}
	if h := s.Hybrid; h != nil {
		switch {
		case h.Fed < 0 || h.Fed > len(s.Valids):
			return fmt.Errorf("hybrid: fed %d outside %d valids", h.Fed, len(s.Valids))
		case h.Stage < hsLoopTop || h.Stage > hsDone:
			return fmt.Errorf("hybrid: unknown stage %d", h.Stage)
		case h.PhaseKind < pkExplore || h.PhaseKind > pkFinal:
			return fmt.Errorf("hybrid: unknown phase kind %d", h.PhaseKind)
		}
	}
	return nil
}

// Restore rebuilds a campaign from a snapshot over prog — which must
// be the same subject the snapshot was taken on. The snapshot
// supplies every serializable knob; cfg supplies what a snapshot
// cannot carry (the Events sink and the MineLexer, which must match
// the original) and may rebudget the campaign: any positive
// cfg.MaxExecs (larger to extend, smaller to stop earlier — even
// immediately, if already passed), cfg.MaxValids, or cfg.Deadline
// overrides the saved value. The Deadline counts active campaign
// time, which the snapshot carries — a resumed campaign continues its
// clock, it does not restart it. Everything else in cfg is ignored.
//
// The restored campaign is exact: its RNG stream
// is fast-forwarded to the saved draw position and its queue, dedup
// sets and loop cursor are rebuilt in order, so stepping it produces
// the same executions an uninterrupted run would from that point.
// Restore validates every field it depends on first and fails closed.
func Restore(prog subject.Program, cfg Config, s *Snapshot) (*Campaign, error) {
	if s == nil {
		return nil, errors.New("core: nil snapshot")
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("core: restoring snapshot: %w", err)
	}
	base := s.Config.config()
	base.Events = cfg.Events
	base.MineLexer = cfg.MineLexer
	if cfg.MaxExecs > 0 {
		base.MaxExecs = cfg.MaxExecs
	}
	if cfg.MaxValids > 0 {
		base.MaxValids = cfg.MaxValids
	}
	if cfg.Deadline > 0 {
		base.Deadline = cfg.Deadline
	}
	if cfg.Cache != CacheAuto {
		// An explicit CacheOn/CacheOff overrides the saved mode — safe
		// either way, since the cache never changes what a campaign
		// emits. The contents are not serialized; a resumed campaign
		// rebuilds them lazily and only the counters carry over.
		base.Cache = cfg.Cache
	}
	f := New(prog, base)
	f.ran = true

	for i := uint64(0); i < s.RNGDraws; i++ {
		//pdlint:ignore enginerand -- fast-forwarding the restored stream to the saved position; the draw counter is set right below
		f.cs.src.Int63()
	}
	f.cs.draws = s.RNGDraws

	f.began = s.Began
	if s.Began {
		f.res.Coverage = make(map[uint32]bool, len(s.Coverage))
		for _, id := range s.Coverage {
			f.res.Coverage[id] = true
		}
	}
	f.clock.Load(time.Duration(s.ElapsedNS))
	f.res.Elapsed = time.Duration(s.ElapsedNS)
	f.res.Execs = s.Execs
	f.res.CacheHits = s.CacheHits
	f.res.CacheMisses = s.CacheMisses
	f.res.CacheRetired = s.CacheRetired
	f.cacheCheckAt = s.CacheCheckAt
	if s.CacheRetired {
		if f.cache != nil && base.Cache == CacheAuto {
			// The adaptive rule had already dropped the cache;
			// resurrect the decision, not the storage, so the retired
			// flag stays truthful and the resumed campaign keeps
			// counting misses the way the interrupted one would have.
			f.cache.Retire()
		} else {
			// An explicit CacheOn/CacheOff override supersedes the old
			// adaptive verdict; the flag describes this campaign's
			// cache, which is live (or absent) again.
			f.res.CacheRetired = false
		}
	}
	f.res.ExecElapsed = time.Duration(s.ExecElapsedNS)
	for i := range s.Valids {
		v := &s.Valids[i]
		f.res.Valids = append(f.res.Valids, Valid{Input: v.Input, NewBlocks: v.NewBlocks, Exec: v.Exec})
		f.validSeen[string(v.Input)] = struct{}{}
	}
	for _, id := range s.VBr {
		f.vBr.add(id)
	}
	for _, pc := range s.PathSeen {
		n := pc.Count
		f.pathSeen[pc.Hash] = &n
	}
	f.longestValid = s.LongestValid
	f.miningActive = s.MiningActive
	f.sStarted = s.SStarted
	f.sInput = s.SInput
	f.sExt = s.SExt
	f.curParents = s.CurParents
	f.curMineGen = s.CurMineGen

	// One shared parentFacts per table entry: former siblings share
	// their blocks and score memo again, as in a campaign that never
	// stopped.
	parents := make([]*parentFacts, len(s.ParentTable))
	for i := range s.ParentTable {
		p := &s.ParentTable[i]
		parents[i] = &parentFacts{blks: p.Blks, stack: p.Stack, path: p.Path}
	}
	// The candidates enter the arena before Seen does, so each records
	// where its own replacement starts; Seen then adds the inputs they
	// lack (a version 1 Seen also repeats the queued ones).
	candidate := func(sc *SnapCandidate) (*candidate, error) {
		pos, added := f.inputs.add(sc.Input, bytes.Index(sc.Input, sc.Replacement))
		if !added {
			return nil, fmt.Errorf("input %q is queued twice", sc.Input)
		}
		cd := &candidate{
			pos: pos, n: uint32(len(sc.Input)), replLen: uint32(len(sc.Replacement)),
			parents: int32(sc.Parents), retries: int32(sc.Retries), mineGen: int32(sc.MineGen),
		}
		if sc.Parent > 0 {
			cd.parent = parents[sc.Parent-1]
		}
		return cd, nil
	}
	if s.SCur != nil {
		cd, err := candidate(s.SCur)
		if err != nil {
			return nil, fmt.Errorf("core: restoring snapshot: s_cur: %w", err)
		}
		f.sCur = cd
		f.sCurScore = s.SCur.Score
	}
	// Every candidate restores into the exact queue in snapshot order.
	for i := range s.Queue {
		e := &s.Queue[i]
		cd, err := candidate(e)
		if err != nil {
			return nil, fmt.Errorf("core: restoring snapshot: queue[%d]: %w", i, err)
		}
		f.queue.Push(cd, e.Score)
	}
	for _, k := range s.Seen {
		f.inputs.add(k, 0)
	}

	if s.Hybrid != nil {
		h := f.ensureHybrid() // seeds MineSeeds, recomputes the budget split
		hb := s.Hybrid
		// Replay the valids the original had folded in, in emission
		// order, reproducing the incremental grammar exactly.
		for i := 0; i < hb.Fed; i++ {
			h.g.Add(f.res.Valids[i].Input)
		}
		h.g.MarkEmitted(hb.Emitted)
		h.fed = hb.Fed
		h.exploreLeft = hb.ExploreLeft
		h.mineLeft = hb.MineLeft
		h.sliceLeft = hb.SliceLeft
		h.stage = hb.Stage
		h.phaseActive = hb.PhaseActive
		h.phaseCap = hb.PhaseCap
		h.phaseMining = hb.PhaseMining
		h.phaseKind = hb.PhaseKind
		h.phaseRound = hb.PhaseRound
		// An extended budget flows into the final exploration sweep —
		// including on a campaign that had already finished, whose
		// terminal stage must reopen or campaignOver would report done
		// before the new budget is touched.
		h.total = base.MaxExecs
		if h.stage == hsDone && !h.phaseActive && f.res.Execs < h.total {
			h.stage = hsFinal
		}
	}
	return &Campaign{f: f}, nil
}
