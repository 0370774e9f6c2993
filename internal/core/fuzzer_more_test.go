package core

import (
	"testing"

	"pfuzzer/internal/core/coretest"
	"pfuzzer/internal/subjects/cjson"
	"pfuzzer/internal/subjects/expr"
	"pfuzzer/internal/subjects/tinyc"
	"pfuzzer/internal/trace"
)

// TestSubstitute checks the span-replacement rule for every
// comparison shape.
func TestSubstitute(t *testing.T) {
	cases := []struct {
		input string
		cmp   trace.Comparison
		cand  string
		want  string
	}{
		// Single char replaced mid-input.
		{"abc", trace.Comparison{Index: 1, Last: 1}, "X", "aXc"},
		// Single char replaced at the end.
		{"abc", trace.Comparison{Index: 2, Last: 2}, "X", "abX"},
		// strcmp span replaced by a longer literal (keyword entry).
		{"whXle", trace.Comparison{Index: 0, Last: 4}, "while", "while"},
		// Partial keyword extended: span covers the whole suffix.
		{"(tr", trace.Comparison{Index: 1, Last: 2}, "true", "(true"},
		// Span end beyond input length is clamped.
		{"ab", trace.Comparison{Index: 1, Last: 5}, "ZZ", "aZZ"},
		// A span starting outside the input appends.
		{"ab", trace.Comparison{Index: 7, Last: 7}, "Z", "abZ"},
		{"ab", trace.Comparison{Index: -1, Last: 0}, "Z", "abZ"},
	}
	for _, c := range cases {
		in := []byte(c.input)
		s, e := replaced(in, &c.cmp)
		got := make([]byte, s+len(c.cand)+len(in)-e)
		substitute(got, in, s, e, []byte(c.cand))
		if string(got) != c.want {
			t.Errorf("substitute(%q, [%d..%d], %q) = %q, want %q",
				c.input, c.cmp.Index, c.cmp.Last, c.cand, got, c.want)
		}
	}
}

// TestFindsJSONKeywordsFast: the headline behaviour — keywords arrive
// through strcmp substitution within a few hundred executions.
func TestFindsJSONKeywordsFast(t *testing.T) {
	found := map[string]bool{}
	f := New(cjson.New(), Config{Seed: 1, MaxExecs: 5000,
		Events: func(ev Event) {
			if ev.Kind != EventValid {
				return
			}
			for tok := range cjson.Tokenize(ev.Input) {
				found[tok] = true
			}
		}})
	f.Run()
	for _, kw := range []string{"true", "false", "null"} {
		if !found[kw] {
			t.Errorf("keyword %q not synthesized within 5000 execs", kw)
		}
	}
}

func TestMaxValidsStops(t *testing.T) {
	f := New(expr.New(), Config{Seed: 1, MaxExecs: 100000, MaxValids: 3})
	res := f.Run()
	if len(res.Valids) != 3 {
		t.Errorf("valids = %d, want exactly 3", len(res.Valids))
	}
	if res.Execs >= 100000 {
		t.Error("campaign ran out the exec budget despite MaxValids")
	}
}

func TestMaxLenRespected(t *testing.T) {
	f := New(expr.New(), Config{Seed: 2, MaxExecs: 5000, MaxLen: 6})
	res := f.Run()
	for _, v := range res.Valids {
		// Emitted inputs come from queue entries (<= MaxLen) plus at
		// most one random extension.
		if len(v.Input) > 7 {
			t.Errorf("emitted input %q exceeds MaxLen+1", v.Input)
		}
	}
}

// TestEventsSeeEveryEmission pins the typed event stream's EventValid
// contract: one event per emitted valid, in emission order, carrying
// the new-block count.
func TestEventsSeeEveryEmission(t *testing.T) {
	var seen [][]byte
	pops := 0
	f := New(expr.New(), Config{Seed: 4, MaxExecs: 3000,
		Events: func(ev Event) {
			switch ev.Kind {
			case EventValid:
				if ev.NewBlocks <= 0 {
					t.Errorf("EventValid for %q carries NewBlocks=%d", ev.Input, ev.NewBlocks)
				}
				seen = append(seen, append([]byte(nil), ev.Input...))
			case EventPop:
				pops++
			}
		}})
	res := f.Run()
	if len(seen) != len(res.Valids) {
		t.Errorf("Events saw %d valids, result has %d", len(seen), len(res.Valids))
	}
	for i := range seen {
		if string(seen[i]) != string(res.Valids[i].Input) {
			t.Errorf("EventValid order mismatch at %d", i)
		}
	}
	if pops == 0 {
		t.Error("serial engine reported no EventPop")
	}
}

// TestAblationsRun ensures every heuristic variant is executable and
// still emits only accepted inputs.
func TestAblationsRun(t *testing.T) {
	variants := map[string]Config{
		"NoLengthTerm":       {NoLengthTerm: true},
		"NoReplacementBonus": {NoReplacementBonus: true},
		"NoStackTerm":        {NoStackTerm: true},
		"NoParentsTerm":      {NoParentsTerm: true},
		"NoPathNovelty":      {NoPathNovelty: true},
		"CoverageOnly":       {CoverageOnly: true},
		"BFS":                {BFS: true},
	}
	for name, cfg := range variants {
		cfg.Seed = 1
		cfg.MaxExecs = 2000
		res := New(tinyc.New(), cfg).Run()
		for _, v := range res.Valids {
			rec := coretest.ExecFull(tinyc.New(), v.Input)
			if !rec.Accepted() {
				t.Errorf("%s: emitted invalid input %q", name, v.Input)
			}
		}
	}
}

// TestCoverageMatchesValids: the result's coverage must be exactly
// the union of the valid inputs' block sets.
func TestCoverageMatchesValids(t *testing.T) {
	f := New(expr.New(), Config{Seed: 6, MaxExecs: 4000})
	res := f.Run()
	union := map[uint32]bool{}
	for _, v := range res.Valids {
		rec := coretest.ExecFull(expr.New(), v.Input)
		for id := range rec.BlockFirst {
			union[id] = true
		}
	}
	if len(union) != len(res.Coverage) {
		t.Fatalf("coverage = %d blocks, union of valids = %d", len(res.Coverage), len(union))
	}
	for id := range union {
		if !res.Coverage[id] {
			t.Errorf("block %d in union but not in coverage", id)
		}
	}
}

// TestEveryValidAddedNewCoverage: emissions are gated on new code
// (the paper's runCheck condition).
func TestEveryValidAddedNewCoverage(t *testing.T) {
	f := New(cjson.New(), Config{Seed: 8, MaxExecs: 5000})
	res := f.Run()
	for _, v := range res.Valids {
		if v.NewBlocks == 0 {
			t.Errorf("valid %q emitted without new coverage", v.Input)
		}
	}
}
