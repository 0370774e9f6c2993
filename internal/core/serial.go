package core

import "time"

// runSerial executes the campaign's trajectory on this goroutine,
// popping one candidate at a time and re-scoring the queue after
// every valid input, exactly as the paper's Algorithm 1 does. Its
// behaviour under a fixed Seed is bit-for-bit deterministic
// (golden_test.go pins the emitted sequence), which keeps the
// paper-reproduction benchmarks valid.
//
// The loop cursor (sInput, sExt, sCur) lives on the Fuzzer so the
// engine is resumable: the hybrid phase driver (hybrid.go) runs it in
// bursts bounded by execCap, and a later burst continues exactly
// where — and with exactly the RNG stream position — the previous one
// stopped. Single-phase campaigns enter once and run out the budget,
// which is bit-identical to the pre-refactor loop.
func (f *Fuzzer) runSerial() {
	f.begin()
	if !f.sStarted {
		f.sStarted = true
		// The paper starts from the empty string, whose rejection via
		// an EOF access at index 0 teaches the fuzzer to append
		// (Figure 1).
		f.sInput = []byte{}
		f.sExt = []byte{f.randChar()}
	}

	for !f.done() {
		if _, ok := f.checkRun(f.sInput, false); !ok {
			if rfE, okE := f.checkRun(f.sExt, true); !okE {
				f.addChildrenSerial(rfE)
			}
			// Re-enqueue the processed input with a retry decay: the
			// random extension is drawn fresh on every pop, so a
			// prefix whose extension led nowhere (for example a
			// keyword destroyed by appending a letter) gets another
			// chance later. The paper's queue admits duplicate
			// inputs and retries the same way.
			if f.sCur != nil {
				f.sCur.retries++
				f.queue.Push(f.sCur, f.score(f.sCur))
			}
		}
		next, score, found := f.queue.PopRescored(f.score)
		if !found {
			// Queue exhausted: restart from a fresh random character.
			f.sInput = []byte{f.randChar()}
			f.curParents = 0
			f.curMineGen = 0
			f.sCur = nil
		} else {
			f.sInput = next.input
			f.curParents = next.parents
			f.curMineGen = next.mineGen
			f.sCur = next
			f.sCurScore = score
			if f.cfg.Events != nil {
				f.emit(Event{Kind: EventPop, Input: f.sInput, Score: score,
					Execs: f.res.Execs, QueueLen: f.queue.Len()})
			}
		}
		// Exact-size allocation (the double-append idiom allocated twice
		// via growth).
		ext := make([]byte, len(f.sInput)+1)
		copy(ext, f.sInput)
		ext[len(f.sInput)] = f.randChar()
		f.sExt = ext
	}
}

// execFacts runs input once against the subject — or replays its
// memoised outcome when the prefix-decided cache already holds it —
// reusing the engine's trace sink, and distills the record into
// run facts; deriving marks runs whose comparisons will seed children.
func (f *Fuzzer) execFacts(input []byte, deriving bool) *runFacts {
	f.res.Execs++
	t0 := time.Now()
	rf, hit := cachedExec(f.cache, f.prog, input, deriving, &f.sink, &f.hint, &f.rfScratch)
	f.res.ExecElapsed += time.Since(t0)
	if f.cache != nil {
		if hit {
			f.res.CacheHits++
		} else {
			f.res.CacheMisses++
		}
		f.maybeRetireCache()
	}
	f.bumpPath(rf.pathHash)
	return rf
}

// checkRun executes input and, if it is valid and covers new code,
// processes it as a new valid input (Algorithm 1, runCheck/validInp).
// It returns the run facts and whether the input was treated as
// valid. Accepted mined-lineage runs that merely set a length record
// are emitted into the result (recordLength) but stay on the ordinary
// search path — extension and retry — as if nothing happened.
func (f *Fuzzer) checkRun(input []byte, deriving bool) (*runFacts, bool) {
	rf := f.execFacts(input, deriving)
	if rf.accepted && f.hasNewIDs(rf.blocks) {
		f.emitValid(rf)
		// Re-score the queue against the grown vBr: "all remaining
		// inputs in the queue have to be re-evaluated in terms of
		// coverage" (§3.2).
		f.queue.Reorder(f.score)
		f.addChildrenSerial(rf)
		return rf, true
	}
	f.recordLength(rf, f.curMineGen)
	return rf, false
}

// addChildrenSerial enqueues rf's successor inputs at the current
// substitution depth and mined lineage, and keeps the queue within
// its bound.
func (f *Fuzzer) addChildrenSerial(rf *runFacts) {
	f.addChildren(rf, f.curParents+1, f.curMineGen, func(cd *candidate) {
		f.queue.Push(cd, f.score(cd))
	})
	f.pruneIfOvergrown()
}
