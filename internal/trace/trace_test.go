package trace

import (
	"testing"
	"testing/quick"

	"pfuzzer/internal/taint"
)

func TestAtRecordsEOF(t *testing.T) {
	tr := New([]byte("ab"), Full())
	if _, ok := tr.At(0); !ok {
		t.Fatal("At(0) failed on 2-byte input")
	}
	if _, ok := tr.At(2); ok {
		t.Fatal("At(2) succeeded past the end")
	}
	rec := tr.Finish(1)
	if len(rec.EOFs) != 1 || rec.EOFs[0].Index != 2 {
		t.Errorf("EOFs = %+v, want one at index 2", rec.EOFs)
	}
	if !rec.EOFAtEnd() {
		t.Error("EOFAtEnd = false, want true")
	}
}

func TestCharEqRecordsTaintedOnly(t *testing.T) {
	tr := New([]byte("x"), Full())
	c, _ := tr.At(0)
	if tr.CharEq(c, 'x') != true || tr.CharEq(c, 'y') != false {
		t.Fatal("CharEq outcome wrong")
	}
	tr.CharEq(taint.Untainted('x'), 'x') // must not record
	rec := tr.Finish(0)
	if len(rec.Comparisons) != 2 {
		t.Fatalf("recorded %d comparisons, want 2", len(rec.Comparisons))
	}
	if !rec.Comparisons[0].Matched || rec.Comparisons[1].Matched {
		t.Error("Matched flags wrong")
	}
}

func TestCharRangeCandidates(t *testing.T) {
	tr := New([]byte("z"), Full())
	c, _ := tr.At(0)
	tr.CharRange(c, '0', '3')
	rec := tr.Finish(1)
	cmp := rec.Comparisons[0]
	if cmp.Kind != CmpCharRange || string(cmp.Expected) != "03" {
		t.Errorf("range comparison = %v %q, want range \"03\"", cmp.Kind, cmp.Expected)
	}
}

func TestStrEqSpans(t *testing.T) {
	tr := New([]byte("whXle"), Full())
	var w taint.String
	for i := 0; i < 5; i++ {
		c, _ := tr.At(i)
		w = w.Append(c)
	}
	if tr.StrEq(w, "while") {
		t.Fatal("StrEq matched a mismatching word")
	}
	rec := tr.Finish(1)
	cmp := rec.Comparisons[0]
	if cmp.Index != 0 || cmp.Last != 4 {
		t.Errorf("span = [%d,%d], want [0,4]", cmp.Index, cmp.Last)
	}
	if string(cmp.Expected) != "while" {
		t.Errorf("expected = %q", cmp.Expected)
	}
	if got := rec.LastComparedIndex(); got != 4 {
		t.Errorf("LastComparedIndex = %d, want 4", got)
	}
}

func TestStrEqUntaintedNotRecorded(t *testing.T) {
	tr := New(nil, Full())
	if !tr.StrEq(taint.FromBytes([]byte("if")), "if") {
		t.Fatal("StrEq should match")
	}
	rec := tr.Finish(0)
	if len(rec.Comparisons) != 0 {
		t.Error("untainted StrEq was recorded")
	}
}

func TestBlocksAndPathHash(t *testing.T) {
	run := func(ids []uint32) uint64 {
		tr := New(nil, Full())
		for _, id := range ids {
			tr.Block(id)
		}
		return tr.Finish(0).PathHash
	}
	if run([]uint32{1, 2, 3}) != run([]uint32{1, 2, 3, 2, 1}) {
		t.Error("duplicate block hits changed the path hash")
	}
	if run([]uint32{1, 2, 3}) == run([]uint32{3, 2, 1}) {
		t.Error("different first-hit orders produced the same path hash")
	}
}

// TestBlocksBeforeSeq pins the sequence numbers the engine's §3.1
// trim reads: a block first hit before the comparison at input index 1
// has a smaller BlockFirst than that comparison's Seq, and a block hit
// after it a larger one.
func TestBlocksBeforeSeq(t *testing.T) {
	tr := New([]byte("ab"), Full())
	tr.Block(1)
	c, _ := tr.At(0)
	tr.CharEq(c, 'a')
	tr.Block(2)
	c2, _ := tr.At(1)
	tr.CharEq(c2, 'x')
	tr.Block(3)
	rec := tr.Finish(1)

	if len(rec.Comparisons) != 2 || rec.Comparisons[1].Index != 1 {
		t.Fatalf("comparisons = %+v, want the second at index 1", rec.Comparisons)
	}
	seq := rec.Comparisons[1].Seq
	for id, before := range map[uint32]bool{1: true, 2: true, 3: false} {
		first, ok := rec.BlockFirst[id]
		if !ok || (first < seq) != before {
			t.Errorf("block %d: BlockFirst = %d (hit %v), comparison Seq = %d, want before=%v",
				id, first, ok, seq, before)
		}
	}
}

func TestEdgesDiffer(t *testing.T) {
	run := func(ids []uint32) []byte {
		tr := New(nil, Options{Edges: true})
		for _, id := range ids {
			tr.Block(id)
		}
		return tr.Finish(0).Edges
	}
	a := run([]uint32{1, 2})
	b := run([]uint32{2, 1})
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different block orders produced identical edge maps")
	}
}

func TestStackDepth(t *testing.T) {
	tr := New([]byte("a"), Full())
	tr.Enter()
	tr.Enter()
	c, _ := tr.At(0)
	tr.CharEq(c, 'b')
	tr.Leave()
	c2, _ := tr.At(0)
	tr.CharEq(c2, 'c')
	tr.Leave()
	rec := tr.Finish(1)
	if rec.Comparisons[0].Stack != 2 || rec.Comparisons[1].Stack != 1 {
		t.Errorf("stacks = %d,%d want 2,1", rec.Comparisons[0].Stack, rec.Comparisons[1].Stack)
	}
	if got := rec.AvgStackLastTwo(); got != 1.5 {
		t.Errorf("AvgStackLastTwo = %v, want 1.5", got)
	}
	if rec.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2", rec.MaxDepth)
	}
}

func TestMaxComparisonsBound(t *testing.T) {
	tr := New([]byte("abc"), Options{Comparisons: true, MaxComparisons: 2})
	for i := 0; i < 3; i++ {
		c, _ := tr.At(i)
		tr.CharEq(c, 'z')
	}
	rec := tr.Finish(1)
	if len(rec.Comparisons) != 2 {
		t.Errorf("recorded %d comparisons, want 2 (bounded)", len(rec.Comparisons))
	}
}

// Property: CharSet agrees with a naive membership check and records
// the set as candidates.
func TestCharSetAgreesWithNaive(t *testing.T) {
	f := func(b byte, set string) bool {
		tr := New([]byte{b}, Full())
		c, _ := tr.At(0)
		got := tr.CharSet(c, set)
		want := false
		for i := 0; i < len(set); i++ {
			if set[i] == b {
				want = true
			}
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: comparison sequence numbers strictly increase.
func TestSeqMonotonic(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		tr := New(data, Full())
		for i := range data {
			c, _ := tr.At(i)
			tr.CharEq(c, 'q')
			tr.Block(uint32(i))
		}
		rec := tr.Finish(0)
		last := -1
		for _, c := range rec.Comparisons {
			if c.Seq <= last {
				return false
			}
			last = c.Seq
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
