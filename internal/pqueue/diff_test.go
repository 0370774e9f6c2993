package pqueue

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refQueue is the queue as it was before Reorder re-sifted only the
// entries that moved and PopRescored re-scored its top in place: every
// re-score rebuilt the whole heap, and a losing top was popped and
// pushed back. TestIncrementalRescoreMatchesReference drives it and
// Queue side by side; the two must be indistinguishable.
type refQueue[T any] struct {
	h   []entry[T]
	seq uint64
}

func (q *refQueue[T]) less(i, j int) bool {
	if q.h[i].score != q.h[j].score {
		return q.h[i].score > q.h[j].score
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *refQueue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *refQueue[T]) down(i int) {
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

func (q *refQueue[T]) heapify() {
	for i := len(q.h)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q *refQueue[T]) Len() int { return len(q.h) }

func (q *refQueue[T]) Push(v T, score float64) {
	q.seq++
	q.h = append(q.h, entry[T]{score: score, seq: q.seq, value: v})
	q.up(len(q.h) - 1)
}

func (q *refQueue[T]) Pop() (T, float64, bool) {
	if len(q.h) == 0 {
		var zero T
		return zero, 0, false
	}
	e := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = entry[T]{}
	q.h = q.h[:n]
	q.down(0)
	return e.value, e.score, true
}

func (q *refQueue[T]) Peek() (T, float64, bool) {
	if len(q.h) == 0 {
		var zero T
		return zero, 0, false
	}
	return q.h[0].value, q.h[0].score, true
}

func (q *refQueue[T]) PopRescored(rescore func(T) float64) (T, float64, bool) {
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

func (q *refQueue[T]) Reorder(rescore func(T) float64) {
	for i := range q.h {
		q.h[i].score = rescore(q.h[i].value)
	}
	q.heapify()
}

func (q *refQueue[T]) Dump() []Item[T] {
	entries := make([]entry[T], len(q.h))
	copy(entries, q.h)
	slices.SortFunc(entries, func(a, b entry[T]) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Item[T], len(entries))
	for i, e := range entries {
		out[i] = Item[T]{Value: e.value, Score: e.score}
	}
	return out
}

func (q *refQueue[T]) Prune(max int) {
	if max < 0 || len(q.h) <= max {
		return
	}
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

// TestIncrementalRescoreMatchesReference drives Queue and refQueue
// through the same random Push/Pop/PopRescored/Reorder/Prune sequence
// and requires the same popped values and scores, Len and Dump after
// every operation. Scores come from a small integer range, so ties —
// decided by sequence number — are everywhere; between re-scores most
// drifted scores fall, a few rise, and some passes move so many that
// Reorder must take its full rebuild, so every branch of both paths
// runs.
func TestIncrementalRescoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var ref refQueue[int]
		cur := map[int]float64{} // each value's current score
		rescore := func(v int) float64 { return cur[v] }
		// drift changes the current score of a share of the queued
		// values: mostly down, occasionally up.
		drift := func(share float64) {
			for _, it := range ref.Dump() {
				if rng.Float64() >= share {
					continue
				}
				if rng.Intn(20) == 0 {
					cur[it.Value] += float64(1 + rng.Intn(3))
				} else {
					cur[it.Value] -= float64(1 + rng.Intn(4))
				}
			}
		}
		next := 0
		for step := 0; step < 3000; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 45:
				op = "push"
				s := float64(rng.Intn(12))
				cur[next] = s
				q.Push(next, s)
				ref.Push(next, s)
				next++
			case r < 55:
				op = "pop"
				v, s, ok := q.Pop()
				rv, rs, rok := ref.Pop()
				if v != rv || s != rs || ok != rok {
					t.Fatalf("seed %d step %d: Pop = (%d, %v, %v), reference (%d, %v, %v)", seed, step, v, s, ok, rv, rs, rok)
				}
			case r < 80:
				op = "poprescored"
				switch {
				case rng.Intn(8) == 0:
					drift(0.9) // stale enough to exhaust the 64 tries
				default:
					drift(0.1)
				}
				v, s, ok := q.PopRescored(rescore)
				rv, rs, rok := ref.PopRescored(rescore)
				if v != rv || s != rs || ok != rok {
					t.Fatalf("seed %d step %d: PopRescored = (%d, %v, %v), reference (%d, %v, %v)", seed, step, v, s, ok, rv, rs, rok)
				}
			case r < 97:
				op = "reorder"
				drift([]float64{0.02, 0.1, 0.2, 0.5}[rng.Intn(4)])
				q.Reorder(rescore)
				ref.Reorder(rescore)
			default:
				op = "prune"
				max := rng.Intn(ref.Len() + 1)
				q.Prune(max)
				ref.Prune(max)
			}
			if q.Len() != ref.Len() {
				t.Fatalf("seed %d step %d (%s): Len = %d, reference %d", seed, step, op, q.Len(), ref.Len())
			}
			if got, want := q.Dump(), ref.Dump(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s): Dump differs from the reference\n got  %v\n want %v", seed, step, op, got, want)
			}
		}
		for ref.Len() > 0 {
			v, s, _ := q.Pop()
			rv, rs, _ := ref.Pop()
			if v != rv || s != rs {
				t.Fatalf("seed %d drain: Pop = (%d, %v), reference (%d, %v)", seed, v, s, rv, rs)
			}
		}
	}
}
