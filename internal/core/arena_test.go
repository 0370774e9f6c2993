package core

import (
	"bytes"
	"fmt"
	"testing"
)

// TestArenaDedupUnderCollisions forces every input onto one hash value
// and onto a handful: dedup must stay exact, because a probe compares
// bytes on every hash match, and every input must read back intact
// across chunk boundaries and index growth.
func TestArenaDedupUnderCollisions(t *testing.T) {
	for _, tc := range []struct {
		name string
		hash func([]byte) uint64
	}{
		{"one value", func([]byte) uint64 { return 7 }},
		{"by length", func(b []byte) uint64 { return uint64(len(b)) }},
		{"maphash", newInputArena().hash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := inputArena{hash: tc.hash}
			var want [][]byte
			for i := range 600 {
				in := []byte(fmt.Sprintf("input-%d", i))
				if i%50 == 0 {
					in = bytes.Repeat(in, 2000) // longer than a chunk
				}
				pos, added := a.add(in, 0)
				if !added || int(pos) != len(want) {
					t.Fatalf("add(%d) = %d, %v; want %d, true", i, pos, added, len(want))
				}
				want = append(want, in)
				if pos, added := a.add(want[i/2], 0); added || int(pos) != i/2 {
					t.Fatalf("re-add of input %d = %d, %v; want %d, false", i/2, pos, added, i/2)
				}
			}
			if a.len() != len(want) {
				t.Fatalf("arena holds %d inputs, want %d", a.len(), len(want))
			}
			for pos, in := range want {
				if got := a.input(uint32(pos)); !bytes.Equal(got, in) {
					t.Fatalf("input %d reads back %q, want %q", pos, got, in)
				}
			}
		})
	}
}

// TestArenaTailRollback: a duplicate written into the tail is dropped
// by not committing it, and the next tail hands out the same bytes.
func TestArenaTailRollback(t *testing.T) {
	a := newInputArena()
	a.add([]byte("abc"), 0)
	dup := a.tail(3)
	copy(dup, "abc")
	if pos, added := a.commit(3, 0); added || pos != 0 {
		t.Fatalf("commit of a duplicate = %d, %v; want 0, false", pos, added)
	}
	next := a.tail(3)
	if &next[0] != &dup[0] {
		t.Fatal("the tail moved past a rolled-back duplicate")
	}
	copy(next, "abd")
	if pos, added := a.commit(3, 1); !added || pos != 1 || a.sub(1) != 1 {
		t.Fatalf("commit = %d, %v, sub %d; want 1, true, 1", pos, added, a.sub(1))
	}
	if got := a.input(0); string(got) != "abc" {
		t.Fatalf("input 0 = %q after the rollback", got)
	}
}

// TestArenaInputsCapacityLimited: appending to a handed-out input
// copies it instead of overwriting the input after it.
func TestArenaInputsCapacityLimited(t *testing.T) {
	a := newInputArena()
	a.add([]byte("first"), 0)
	a.add([]byte("second"), 0)
	first := a.input(0)
	if cap(first) != len(first) {
		t.Fatalf("input 0 has capacity %d past its length %d", cap(first), len(first))
	}
	_ = append(first, "XXXX"...)
	if got := a.input(1); string(got) != "second" {
		t.Fatalf("input 1 = %q after an append to input 0", got)
	}
}
