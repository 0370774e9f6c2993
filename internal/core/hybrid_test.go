package core

import (
	"hash/fnv"
	"testing"
	"time"

	"pfuzzer/internal/core/coretest"
	"pfuzzer/internal/mine"
	"pfuzzer/internal/subject"
	"pfuzzer/internal/subjects/mjs"
	"pfuzzer/internal/subjects/tinyc"
)

func tinycLexer() mine.Lexer {
	return mine.SimpleLexer([]string{"if", "else", "while", "do"})
}

func mjsLexer() mine.Lexer {
	var kw []string
	for _, tok := range mjs.Inventory {
		if len(tok.Name) >= 2 && (tok.Name[0] >= 'a' && tok.Name[0] <= 'z' ||
			tok.Name[0] >= 'A' && tok.Name[0] <= 'Z') {
			kw = append(kw, tok.Name)
		}
	}
	return mine.SimpleLexer(kw)
}

func maxValidLen(res *Result) int {
	m := 0
	for _, v := range res.Valids {
		if len(v.Input) > m {
			m = len(v.Input)
		}
	}
	return m
}

// TestRunPanicsOnReuse pins the single-campaign contract: a second
// Run would silently continue on dirty state (seen, vBr, res) and
// double-count executions, so it must panic instead.
func TestRunPanicsOnReuse(t *testing.T) {
	f := New(tinyc.New(), Config{Seed: 1, MaxExecs: 200})
	f.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run() did not panic")
		}
	}()
	f.Run()
}

// TestHybridDeterministicSerial is the golden test for the hybrid
// campaign: on the serial engine under a fixed seed the phase driver
// — exploration bursts, grammar mining, candidate generation and
// validation — must be fully deterministic, so two fresh fuzzers
// produce bit-identical emission sequences.
func TestHybridDeterministicSerial(t *testing.T) {
	run := func() (*Result, uint64) {
		res := New(tinyc.New(), Config{
			Seed: 7, MaxExecs: 20000, MinePhase: true, MineLexer: tinycLexer(),
		}).Run()
		h := fnv.New64a()
		for _, v := range res.Valids {
			h.Write(v.Input)
			h.Write([]byte{0})
		}
		return res, h.Sum64()
	}
	res1, h1 := run()
	res2, h2 := run()
	if h1 != h2 || len(res1.Valids) != len(res2.Valids) || res1.Execs != res2.Execs {
		t.Fatalf("hybrid serial campaign not deterministic: run1 %d valids execs %d hash %#x, run2 %d valids execs %d hash %#x",
			len(res1.Valids), res1.Execs, h1, len(res2.Valids), res2.Execs, h2)
	}
	if len(res1.Valids) == 0 {
		t.Fatal("hybrid campaign emitted nothing")
	}
	// Every emitted input — coverage valids and mined length records
	// alike — must be accepted by the parser.
	for _, v := range res1.Valids {
		rec := coretest.ExecFull(tinyc.New(), v.Input)
		if !rec.Accepted() {
			t.Errorf("emitted input %q is not accepted", v.Input)
		}
	}
}

// TestHybridRespectsBudgetAndMaxValids checks the phase driver
// honours the campaign-global knobs across phase boundaries.
func TestHybridRespectsBudgetAndMaxValids(t *testing.T) {
	res := New(tinyc.New(), Config{
		Seed: 2, MaxExecs: 8000, MinePhase: true, MineLexer: tinycLexer(),
	}).Run()
	if res.Execs > 8001 { // the serial loop may overshoot by the in-flight pair
		t.Errorf("execs %d exceed the budget of 8000", res.Execs)
	}
	res = New(tinyc.New(), Config{
		Seed: 2, MaxExecs: 50000, MaxValids: 3, MinePhase: true, MineLexer: tinycLexer(),
	}).Run()
	if len(res.Valids) < 3 {
		t.Errorf("stopped with %d valids, want >= 3", len(res.Valids))
	}
	if res.Execs == 50000 {
		t.Error("campaign ran out the full budget despite MaxValids=3")
	}
}

// TestHybridAllMiningBudgetTerminates is the regression test for the
// zero-cadence hang: MineBudget >= MaxExecs leaves no exploration
// budget, so there is no corpus to mine and the unminable slices fall
// through to exploration — which used to run zero-execution phases
// forever. The campaign must instead spend the budget and return.
func TestHybridAllMiningBudgetTerminates(t *testing.T) {
	done := make(chan *Result, 1)
	go func() {
		done <- New(tinyc.New(), Config{
			Seed: 1, MaxExecs: 1000, MinePhase: true, MineBudget: 1000,
			MineLexer: tinycLexer(),
		}).Run()
	}()
	select {
	case res := <-done:
		if res.Execs < 1000 {
			t.Errorf("campaign stopped after %d execs, want the full 1000", res.Execs)
		}
	case <-time.After(30 * time.Second):
		// A 1000-exec tinyc campaign takes milliseconds; 30s is pure
		// hang insurance.
		t.Fatal("all-mining hybrid campaign did not terminate")
	}
}

// TestHybridParallelValidatesMined runs a long hybrid campaign (its
// name is from the retired parallel engine it first ran on): the
// budget holds, and every emitted input is unique and accepted.
func TestHybridParallelValidatesMined(t *testing.T) {
	res := New(tinyc.New(), Config{
		Seed: 3, MaxExecs: 30000, MinePhase: true, MineLexer: tinycLexer(),
	}).Run()
	if res.Execs > 30000 {
		t.Errorf("execs %d exceed the budget of 30000", res.Execs)
	}
	if len(res.Valids) == 0 {
		t.Fatal("hybrid campaign emitted nothing")
	}
	seen := map[string]bool{}
	for _, v := range res.Valids {
		if seen[string(v.Input)] {
			t.Errorf("duplicate valid input %q", v.Input)
		}
		seen[string(v.Input)] = true
		rec := coretest.ExecFull(tinyc.New(), v.Input)
		if !rec.Accepted() {
			t.Errorf("emitted input %q is not accepted", v.Input)
		}
	}
}

// TestHybridOutlengthensPure is the §7.4 claim itself, at the default
// execution budget: on tinyc and mjs the hybrid campaign must emit at
// least one valid input strictly longer than any valid input the pure
// parser-directed campaign emits under the same seed — deep,
// recursive inputs that last-character substitution alone does not
// reach.
func TestHybridOutlengthensPure(t *testing.T) {
	if testing.Short() {
		t.Skip("four default-budget campaigns; skipped with -short")
	}
	for _, tc := range []struct {
		name string
		prog func() subject.Program
		lex  mine.Lexer
	}{
		{"tinyc", func() subject.Program { return tinyc.New() }, tinycLexer()},
		{"mjs", func() subject.Program { return mjs.New() }, mjsLexer()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pure := New(tc.prog(), Config{Seed: 1}).Run()
			hyb := New(tc.prog(), Config{Seed: 1, MinePhase: true, MineLexer: tc.lex}).Run()
			pmax, hmax := maxValidLen(pure), maxValidLen(hyb)
			longer := 0
			for _, v := range hyb.Valids {
				if len(v.Input) > pmax {
					longer++
				}
			}
			t.Logf("pure: %d valids, max %d bytes; hybrid: %d valids, max %d bytes, %d longer than pure's max",
				len(pure.Valids), pmax, len(hyb.Valids), hmax, longer)
			if longer == 0 {
				t.Errorf("hybrid campaign emitted no valid input longer than the pure campaign's max of %d bytes", pmax)
			}
		})
	}
}
