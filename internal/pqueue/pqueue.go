// Package pqueue provides the priority queue at the heart of
// pFuzzer's search (paper §3.1). Inputs are primarily sorted by a
// heuristic score; ties fall back to insertion order so the search is
// deterministic under a fixed seed. The queue supports the global
// re-scoring pass the paper performs whenever a new valid input
// arrives ("all remaining inputs in the queue have to be re-evaluated
// in terms of coverage", §3.2) and a size bound that discards the
// worst entries. A re-scoring pass moves only the entries whose score
// changed (see Reorder).
//
// The heap is hand-rolled rather than built on container/heap: the
// standard interface moves entries through `any`, which boxes every
// Push/Pop value — two heap allocations per queue operation on the
// campaign trajectory's hot loop. The sift routines below work on the
// typed slice directly and allocate nothing. Because the ordering
// (score descending, insertion sequence ascending) is a strict total
// order — sequence numbers are unique — the pop sequence is a pure
// function of the queued (score, seq) pairs, independent of internal
// array layout, so replacing the heap implementation cannot change
// any campaign's observable behaviour.
package pqueue

import (
	"cmp"
	"slices"
)

// Queue is a max-priority queue of values of type T. The zero value is
// ready to use.
type Queue[T any] struct {
	h     []entry[T]
	seq   uint64
	moved []int // Reorder's scratch: indices whose score fell
}

type entry[T any] struct {
	score float64
	seq   uint64
	value T
}

// less orders the heap: higher score first, FIFO among equals.
func (q *Queue[T]) less(i, j int) bool {
	if q.h[i].score != q.h[j].score {
		return q.h[i].score > q.h[j].score
	}
	return q.h[i].seq < q.h[j].seq
}

// up restores the heap property from index i toward the root.
func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// bestChild returns the index of i's higher-priority child, or -1 if
// i is a leaf.
func (q *Queue[T]) bestChild(i int) int {
	l := 2*i + 1
	if l >= len(q.h) {
		return -1
	}
	if r := l + 1; r < len(q.h) && q.less(r, l) {
		return r
	}
	return l
}

// down restores the heap property from index i toward the leaves.
func (q *Queue[T]) down(i int) {
	for {
		best := q.bestChild(i)
		if best < 0 || !q.less(best, i) {
			return
		}
		q.h[i], q.h[best] = q.h[best], q.h[i]
		i = best
	}
}

// heapify rebuilds the heap property over the whole slice.
func (q *Queue[T]) heapify() {
	for i := len(q.h)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.h) }

// Push inserts v with the given score.
func (q *Queue[T]) Push(v T, score float64) {
	q.seq++
	q.h = append(q.h, entry[T]{score: score, seq: q.seq, value: v})
	q.up(len(q.h) - 1)
}

// Pop removes and returns the highest-scored value. Among equal scores
// the earliest-pushed value wins.
func (q *Queue[T]) Pop() (T, float64, bool) {
	if len(q.h) == 0 {
		var zero T
		return zero, 0, false
	}
	e := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = entry[T]{} // release the value for GC
	q.h = q.h[:n]
	q.down(0)
	return e.value, e.score, true
}

// Peek returns the highest-scored value without removing it.
func (q *Queue[T]) Peek() (T, float64, bool) {
	if len(q.h) == 0 {
		var zero T
		return zero, 0, false
	}
	// The heap property places the maximum at index 0.
	return q.h[0].value, q.h[0].score, true
}

// PopRescored pops the value with the highest *current* score, where
// rescore gives the up-to-date score of a queued value. It relies on
// scores only decreasing over time (coverage and path penalties only
// grow), the classic lazy-deletion max-heap: the stale top is
// re-scored, and if something else now beats it, it goes back in with
// its fresh score and a fresh sequence number.
//
// The top is re-scored in place rather than popped and re-pushed. The
// value it competes with is the root's better child — exactly what
// Peek would return after a Pop — and a losing top takes its fresh
// score and the next sequence number and sifts down. That leaves the
// same (score, seq) multiset a Pop followed by a Push would, so the
// pop sequence is the same (see the package doc), at one sift instead
// of two.
//
// After 64 losing tops in a row the queue falls back to a full
// re-score. Over the 24 campaigns of the explore benchmark's plan at
// seeds 1–3 (20k executions each), that fired on 0.01–2.7% of pops,
// median 0.37%. Those firings are still 80% of the campaigns' full
// re-score passes, each over thousands to tens of thousands of
// entries.
func (q *Queue[T]) PopRescored(rescore func(T) float64) (T, float64, bool) {
	for i := 0; i < 64; i++ {
		if len(q.h) == 0 {
			var zero T
			return zero, 0, false
		}
		fresh := rescore(q.h[0].value)
		if c := q.bestChild(0); c < 0 || fresh >= q.h[c].score {
			v, _, _ := q.Pop()
			return v, fresh, true
		}
		q.seq++
		q.h[0].score, q.h[0].seq = fresh, q.seq
		q.down(0)
	}
	q.Reorder(rescore)
	return q.Pop()
}

// Reorder recomputes every score with rescore and restores the heap
// property. Insertion order is preserved for tie-breaking.
//
// Most passes lower a few scores and raise none: a new valid input
// shrinks the coverage bonus of some parents, and path penalties only
// grow. Reorder therefore records the indices whose score changed and,
// when no score rose and at most a quarter changed, sifts down only
// those, deepest first, instead of rebuilding the whole heap. That is
// exact. heapify's down(k) at an unchanged index k is a no-op once its
// subtrees are heaps: the new root of a child's subtree came from that
// subtree, so it scored no higher than the child did before the pass,
// which scored no higher than k. Skipping those no-ops leaves a valid
// heap over the same (score, seq) pairs, and the pop order depends on
// nothing else.
func (q *Queue[T]) Reorder(rescore func(T) float64) {
	limit := len(q.h) / 4
	moved := q.moved[:0]
	full := false
	for i := range q.h {
		e := &q.h[i]
		s := rescore(e.value)
		if s == e.score {
			continue
		}
		// !(s < e.score) also sends a NaN score to the full rebuild.
		if !(s < e.score) || len(moved) == limit {
			full = true
		}
		e.score = s
		if !full {
			moved = append(moved, i)
		}
	}
	q.moved = moved[:0]
	if full {
		q.heapify()
		return
	}
	for j := len(moved) - 1; j >= 0; j-- {
		q.down(moved[j])
	}
}

// Item is one queued value with its current heap score, as exported
// by Dump for campaign snapshots.
type Item[T any] struct {
	Value T
	Score float64
}

// Dump returns every queued value with its current score, ordered by
// insertion sequence (oldest first). Restoring a queue by Pushing the
// dumped items back in this order reproduces the original pop order
// exactly: scores are preserved, and the re-assigned sequence numbers
// keep the same relative FIFO tie-break. The queue is not modified.
func (q *Queue[T]) Dump() []Item[T] {
	entries := make([]entry[T], len(q.h))
	copy(entries, q.h)
	slices.SortFunc(entries, func(a, b entry[T]) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Item[T], len(entries))
	for i, e := range entries {
		out[i] = Item[T]{Value: e.value, Score: e.score}
	}
	return out
}

// Prune discards the lowest-scored entries until at most max remain.
func (q *Queue[T]) Prune(max int) {
	if max < 0 || len(q.h) <= max {
		return
	}
	// Extract the best max entries; O(max log n).
	kept := make([]entry[T], 0, max)
	for i := 0; i < max; i++ {
		kept = append(kept, q.h[0])
		n := len(q.h) - 1
		q.h[0] = q.h[n]
		q.h[n] = entry[T]{}
		q.h = q.h[:n]
		q.down(0)
	}
	q.h = kept
	q.heapify()
}
