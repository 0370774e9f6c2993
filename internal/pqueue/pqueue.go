// Package pqueue provides the priority queue at the heart of
// pFuzzer's search (paper §3.1). Inputs are primarily sorted by a
// heuristic score; ties fall back to insertion order so the search is
// deterministic under a fixed seed. The queue supports the global
// re-scoring pass the paper performs whenever a new valid input
// arrives ("all remaining inputs in the queue have to be re-evaluated
// in terms of coverage", §3.2) and a size bound that discards the
// worst entries.
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
	h   []entry[T]
	seq uint64
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

// down restores the heap property from index i toward the leaves.
func (q *Queue[T]) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && q.less(r, l) {
			best = r
		}
		if !q.less(best, i) {
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
// grow), the classic lazy-deletion max-heap: the stale top is popped,
// re-scored, and re-inserted if something else now beats it.
func (q *Queue[T]) PopRescored(rescore func(T) float64) (T, float64, bool) {
	for i := 0; i < 64; i++ {
		v, _, ok := q.Pop()
		if !ok {
			var zero T
			return zero, 0, false
		}
		fresh := rescore(v)
		_, nextScore, more := q.Peek()
		if !more || fresh >= nextScore {
			return v, fresh, true
		}
		q.Push(v, fresh)
	}
	// Pathological staleness: fall back to a full re-score.
	q.Reorder(rescore)
	return q.Pop()
}

// Reorder recomputes every score with rescore and restores the heap
// property. Insertion order is preserved for tie-breaking.
func (q *Queue[T]) Reorder(rescore func(T) float64) {
	for i := range q.h {
		q.h[i].score = rescore(q.h[i].value)
	}
	q.heapify()
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
