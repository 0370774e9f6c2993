package core

import (
	"bytes"
	"hash/maphash"
	"math"
)

// Arena chunk sizes: a campaign's first chunk is small, so a campaign
// that enqueues little (ini, csv) holds little, and each new chunk
// doubles up to the cap. An input longer than the chunk it would start
// gets a chunk of its own, because inputs never straddle chunks.
const (
	arenaFirstChunk = 1 << 10
	arenaMaxChunk   = 64 << 10
)

// inputArena is the campaign's append-only store of every input ever
// enqueued, each held once, in insertion order. It is both the dedup
// set of Algorithm 1 (a child is enqueued only if it was never seen)
// and the backing bytes of every queued candidate, which refers to its
// input by arena position.
//
// Bytes are written in chunks and never move, so a slice handed out by
// input stays valid for the campaign's life; every such slice is
// capacity-limited, so an append by its holder copies instead of
// overwriting the next input. The index is an open-addressed,
// linearly probed table of 64-bit words, each 32 hash bits above the
// position plus one (0 marks an empty slot). It holds no pointers, so
// the collector never scans it. A probe compares the stored hash bits
// first and the bytes on a match, so dedup is exact whatever the hash
// does: the table's layout never feeds campaign state, which is why a
// per-campaign random maphash seed is safe.
type inputArena struct {
	chunks [][]byte // the last one is being filled; len is its used part
	spans  []span   // by position
	index  []uint64 // len is a power of two, or nil before the first commit
	hash   func([]byte) uint64
}

// span locates one arena input. sub is where its substituted value
// starts (0 for inputs that are not substitution children): a
// candidate keeps only the value's length, and a snapshot re-reads the
// value's bytes from the input.
type span struct {
	chunk, off, n, sub uint32
}

func newInputArena() inputArena {
	seed := maphash.MakeSeed()
	return inputArena{hash: func(b []byte) uint64 { return maphash.Bytes(seed, b) }}
}

// len returns the number of inputs held.
func (a *inputArena) len() int { return len(a.spans) }

// input returns the bytes at position pos, capacity-limited.
func (a *inputArena) input(pos uint32) []byte {
	s := a.spans[pos]
	return a.chunks[s.chunk][s.off : s.off+s.n : s.off+s.n]
}

// sub returns where the substituted value of the input at pos starts.
func (a *inputArena) sub(pos uint32) int { return int(a.spans[pos].sub) }

// tail returns n writable bytes at the arena's end. They become an
// arena input only when commit keeps them; until then the next tail
// call hands out the same bytes again, so a duplicate is rolled back
// by not committing it.
func (a *inputArena) tail(n int) []byte {
	last := len(a.chunks) - 1
	if last < 0 || cap(a.chunks[last])-len(a.chunks[last]) < n {
		size := arenaFirstChunk
		if last >= 0 {
			size = min(2*cap(a.chunks[last]), arenaMaxChunk)
		}
		a.chunks = append(a.chunks, make([]byte, 0, max(size, n)))
		last++
	}
	c := a.chunks[last]
	return c[len(c) : len(c)+n]
}

// commit keeps the n bytes last returned by tail as a new input whose
// substituted value starts at sub, unless the arena already holds
// them. It returns the input's position and whether it was added.
func (a *inputArena) commit(n, sub int) (pos uint32, added bool) {
	last := len(a.chunks) - 1
	c := a.chunks[last]
	b := c[len(c) : len(c)+n]
	h := uint32(a.hash(b))
	if a.index == nil {
		a.index = make([]uint64, 64)
	}
	slot, found := a.find(b, h)
	if found {
		return uint32(a.index[slot]) - 1, false
	}
	if uint64(len(a.spans)) >= math.MaxUint32-1 {
		panic("core: input arena holds 2^32-1 inputs")
	}
	pos = uint32(len(a.spans))
	a.spans = append(a.spans, span{chunk: uint32(last), off: uint32(len(c)), n: uint32(n), sub: uint32(sub)})
	a.chunks[last] = c[:len(c)+n]
	a.index[slot] = uint64(h)<<32 | uint64(pos+1)
	if 4*len(a.spans) > 3*len(a.index) {
		a.grow()
	}
	return pos, true
}

// add copies b in as a new input (see commit).
func (a *inputArena) add(b []byte, sub int) (pos uint32, added bool) {
	copy(a.tail(len(b)), b)
	return a.commit(len(b), sub)
}

// find probes for b, whose hash bits are h. It returns b's slot when
// the arena holds b, and otherwise the empty slot b would take.
func (a *inputArena) find(b []byte, h uint32) (slot int, found bool) {
	mask := len(a.index) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := a.index[i]
		if e == 0 {
			return i, false
		}
		if uint32(e>>32) == h && bytes.Equal(a.input(uint32(e)-1), b) {
			return i, true
		}
	}
}

// grow doubles the index. Each word carries its hash bits, so no input
// is hashed again.
func (a *inputArena) grow() {
	old := a.index
	a.index = make([]uint64, 2*len(old))
	mask := len(a.index) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int(e>>32) & mask
		for a.index[i] != 0 {
			i = (i + 1) & mask
		}
		a.index[i] = e
	}
}
