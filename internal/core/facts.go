package core

import (
	"slices"
	"sort"

	"pfuzzer/internal/trace"
)

// traceOpts is the recording configuration the engine executes
// subjects under. The ordered block sequence is off: the search only
// consumes the first-hit block set, the comparisons, and the path
// hash, and skipping the sequence keeps per-execution allocation (and
// the reusable sink) small.
func traceOpts() trace.Options { return trace.Options{Comparisons: true} }

// runFacts is the distilled outcome of one subject execution: every
// datum the campaign algorithm consumes, copied out of the (possibly
// sink-backed, reusable) trace record. Extracting facts immediately
// after the run is what lets the engine reuse its trace buffers and
// the cache memoise a compact value instead of the full record.
type runFacts struct {
	input     []byte
	accepted  bool
	pathHash  uint64
	blocks    []uint32           // distinct covered blocks (coverage merge)
	trimmed   []uint32           // blocks first hit before the final comparison
	stack     float64            // avg stack depth of the last two comparisons
	lastComps []trace.Comparison // comparisons ending at the last compared index
}

// factsOf distills rec into a runFacts, copying only what the
// campaign can consume so the hot path stays allocation-light:
//
//   - Rejected primary runs (the most common outcome by far) feed
//     nothing but the path-frequency map — children are derived from
//     their extension run — so with deriving == false only the cheap
//     scalars are kept.
//   - Runs children are derived from (deriving == true, and every
//     accepted run, since a valid input with new coverage spawns
//     children directly) additionally carry the trimmed parent
//     blocks, the stack average, and the final-index comparisons.
//   - Only accepted runs carry the full block set; it exists to merge
//     valid-input coverage.
//
// The trimming of the parent block set follows the paper's §3.1 rule
// as adjusted for interleaved lexers (see DESIGN.md §4): blocks first
// hit after the final comparison — error handling — do not count
// towards a child's new-coverage score.
func factsOf(rec *trace.Record, deriving bool) *runFacts {
	return factsOfInto(new(runFacts), rec, deriving)
}

// factsOfInto is factsOf distilling into a caller-owned struct — the
// engine passes its per-Fuzzer scratch (see runFactsInto for why that
// is sound).
func factsOfInto(rf *runFacts, rec *trace.Record, deriving bool) *runFacts {
	*rf = runFacts{
		input:    rec.Input,
		accepted: rec.Accepted(),
		pathHash: rec.PathHash,
	}
	if rf.accepted {
		rf.blocks = make([]uint32, 0, len(rec.BlockFirst))
		for id := range rec.BlockFirst {
			rf.blocks = append(rf.blocks, id)
		}
		slices.Sort(rf.blocks) // sort.Slice would allocate its closure + swapper per call
	}
	if deriving || rf.accepted {
		rf.stack = rec.AvgStackLastTwo()
		// Blocks first hit before the final comparison, collected
		// straight into the slice: the map BlocksBeforeSeq would
		// allocate per execution buys nothing here, and this runs for
		// every deriving execution — and, with the cache enabled, for
		// every miss.
		cut := int(^uint(0) >> 1)
		if n := len(rec.Comparisons); n > 0 {
			cut = rec.Comparisons[n-1].Seq + 1
		}
		rf.trimmed = make([]uint32, 0, len(rec.BlockFirst))
		for id, s := range rec.BlockFirst {
			if s < cut {
				rf.trimmed = append(rf.trimmed, id)
			}
		}
		slices.Sort(rf.trimmed)
		// The final-index comparisons are the one piece of the record
		// the engine retains beyond the execution (candidates alias
		// their replacement bytes; cache entries store them in derived
		// facts), while the record's comparison bytes live in the
		// sink's reusable arena — so copy the selected comparisons out,
		// with all their byte payloads packed into one fresh blob.
		last := rec.LastComparedIndex()
		n, total := 0, 0
		for i := range rec.Comparisons {
			if c := &rec.Comparisons[i]; c.Last == last {
				n++
				total += len(c.Actual) + len(c.Expected)
			}
		}
		if n > 0 {
			out := make([]trace.Comparison, 0, n)
			blob := make([]byte, 0, total)
			for i := range rec.Comparisons {
				c := rec.Comparisons[i]
				if c.Last != last {
					continue
				}
				blob = append(blob, c.Actual...)
				c.Actual = blob[len(blob)-len(c.Actual) : len(blob) : len(blob)]
				blob = append(blob, c.Expected...)
				c.Expected = blob[len(blob)-len(c.Expected) : len(blob) : len(blob)]
				out = append(out, c)
			}
			rf.lastComps = out
		}
	}
	return rf
}

// pruneIfOvergrown bounds the queue to MaxQueue with hysteresis:
// draining a heap is O(max·log n), so prune only when the queue has
// grown half again past its bound.
func (f *Fuzzer) pruneIfOvergrown() {
	if f.queue.Len() > f.cfg.MaxQueue+f.cfg.MaxQueue/2 {
		f.queue.Prune(f.cfg.MaxQueue)
	}
}

// blockSet is a dense coverage set over block IDs. The score loop
// probes it once per parent block per candidate per re-scoring pass —
// the hottest lookup in the whole engine — so membership must be an
// array index, not a map probe. Subjects number their blocks densely
// from 0 (registry contract), so the backing slice stays small; a
// pathological ID beyond the growth cap spills into the overflow map
// rather than allocating gigabytes.
type blockSet struct {
	dense    []bool
	overflow map[uint32]bool
}

// blockSetGrowCap bounds the dense tier (4 MiB of bools).
const blockSetGrowCap = 1 << 22

func (s *blockSet) has(id uint32) bool {
	if int64(id) < int64(len(s.dense)) {
		return s.dense[id]
	}
	return s.overflow[id]
}

func (s *blockSet) add(id uint32) {
	if int64(id) >= int64(len(s.dense)) {
		if id >= blockSetGrowCap {
			if s.overflow == nil {
				s.overflow = make(map[uint32]bool)
			}
			s.overflow[id] = true
			return
		}
		grown := make([]bool, id+1)
		copy(grown, s.dense)
		s.dense = grown
	}
	s.dense[id] = true
}

// ids returns the member IDs in ascending order. The dense tier comes
// out ascending by construction; overflow IDs are sorted before the
// append so sets with pathological members serialize identically
// run-to-run.
func (s *blockSet) ids() []uint32 {
	var out []uint32
	for id, set := range s.dense {
		if set {
			out = append(out, uint32(id))
		}
	}
	if len(s.overflow) > 0 {
		spill := make([]uint32, 0, len(s.overflow))
		for id := range s.overflow {
			spill = append(spill, id)
		}
		sort.Slice(spill, func(i, j int) bool { return spill[i] < spill[j] })
		out = append(out, spill...)
	}
	return out
}

// hasNewIDs reports whether any of ids is not yet covered by a valid
// input.
func (f *Fuzzer) hasNewIDs(ids []uint32) bool {
	for _, id := range ids {
		if !f.vBr.has(id) {
			return true
		}
	}
	return false
}

// recordLength emits an accepted mined-lineage run as a valid input
// when it sets a new length record, without granting it the search
// treatment of a new-coverage valid. The paper's emission rule is new
// block coverage; the mining phase exists to reach deep, recursive
// inputs that are longer re-combinations of already-covered
// constructs, for which coverage novelty is the wrong filter. Two
// restrictions keep the relaxation from perturbing the search:
// lineage-only (ordinary exploration inputs never qualify — emitting
// a boring accepted prefix would stop its extension retries, which is
// where exploration progress comes from), and the strictly-increasing
// longestValid ratchet bounds the volume.
func (f *Fuzzer) recordLength(rf *runFacts, mineGen int) {
	if f.cfg.MinePhase && mineGen > 0 && rf.accepted && len(rf.input) > f.longestValid {
		f.emitValid(rf)
	}
}

// emitValid records rf as a newly found valid input: it appends it to
// the result (deduplicated), merges its blocks into the result
// coverage and into vBr, and emits an EventValid. Re-scoring
// the queue against the grown vBr is the caller's business: checkRun
// re-scores immediately (the paper's per-valid pass).
func (f *Fuzzer) emitValid(rf *runFacts) {
	key := string(rf.input)
	if _, dup := f.validSeen[key]; !dup {
		f.validSeen[key] = struct{}{}
		newBlocks := 0
		for _, id := range rf.blocks {
			if !f.res.Coverage[id] {
				f.res.Coverage[id] = true
				newBlocks++
			}
		}
		v := Valid{
			Input:     append([]byte{}, rf.input...),
			NewBlocks: newBlocks,
			Exec:      f.res.Execs,
		}
		f.res.Valids = append(f.res.Valids, v)
		if len(v.Input) > f.longestValid {
			f.longestValid = len(v.Input)
		}
		f.emit(Event{Kind: EventValid, Input: v.Input, Execs: v.Exec, NewBlocks: v.NewBlocks})
	}
	for _, id := range rf.blocks {
		f.vBr.add(id)
	}
	f.vbrGen++ // parent coverage memos are stale now
}

// addChildren derives one successor input per comparison made to the
// last compared character and hands it to push, tagging each child
// with the parent's mined lineage bumped by one (mineGen 0 stays 0:
// ordinary candidates have no lineage) (Algorithm 1,
// addInputs). Substituting only at the failing index is what the
// paper describes throughout: "the fuzzer then corrects the invalid
// character to pass one of the character comparisons that was made at
// that index" (§1), "the mutations always occur at the last index
// where the comparison failed" (§6.2). The replacement is one of the
// values the character was compared against; range and set
// comparisons pick a random member, so repeated executions of the
// same comparison explore different members. For a comparison
// spanning input[s..e], the successor is input[:s] + expected +
// input[e+1:]; for wrapped strcmp comparisons the whole literal is
// substituted, which is how keywords enter the inputs.
func (f *Fuzzer) addChildren(rf *runFacts, depth, parentMineGen int, push func(*candidate)) {
	childGen := 0
	if parentMineGen > 0 {
		childGen = parentMineGen + 1
	}
	// One shared parentFacts for all of rf's children: siblings score
	// identically on every parent-derived term, so the score memos
	// (see parentFacts) amortize across them.
	pf := &parentFacts{blks: rf.trimmed, stack: rf.stack, path: rf.pathHash}
	for i := range rf.lastComps {
		c := &rf.lastComps[i]
		cand, ok := f.pick(c)
		if !ok {
			continue
		}
		if c.Matched && len(cand) == len(c.Actual) && string(cand) == string(c.Actual) {
			continue // no-op substitution
		}
		child := substitute(rf.input, c, cand)
		if len(child) > f.cfg.MaxLen {
			continue
		}
		key := string(child)
		if _, dup := f.seen[key]; dup {
			continue
		}
		f.seen[key] = struct{}{}
		push(&candidate{
			input:       child,
			replacement: cand,
			parent:      pf,
			parents:     depth,
			mineGen:     childGen,
		})
	}
}
