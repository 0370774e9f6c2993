package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPopOrder(t *testing.T) {
	var q Queue[string]
	q.Push("low", 1)
	q.Push("high", 10)
	q.Push("mid", 5)
	for _, want := range []string{"high", "mid", "low"} {
		got, _, ok := q.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %q, want %q", got, want)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue succeeded")
	}
}

func TestFIFOAmongEqualScores(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(i, 1)
	}
	for i := 0; i < 10; i++ {
		got, _, _ := q.Pop()
		if got != i {
			t.Fatalf("equal-score pop %d = %d, want FIFO", i, got)
		}
	}
}

func TestReorder(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 5; i++ {
		q.Push(i, float64(i))
	}
	// Invert the scores: smallest value should now pop first.
	q.Reorder(func(v int) float64 { return -float64(v) })
	got, _, _ := q.Pop()
	if got != 0 {
		t.Errorf("after Reorder, Pop = %d, want 0", got)
	}
}

func TestPrune(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(i, float64(i))
	}
	q.Prune(10)
	if q.Len() != 10 {
		t.Fatalf("Len after Prune = %d, want 10", q.Len())
	}
	// The survivors must be the 10 best (90..99).
	for want := 99; want >= 90; want-- {
		got, _, _ := q.Pop()
		if got != want {
			t.Fatalf("post-prune pop = %d, want %d", got, want)
		}
	}
}

func TestPopRescoredPrefersFreshScores(t *testing.T) {
	var q Queue[string]
	q.Push("stale", 100) // pushed with a high, now-stale score
	q.Push("fresh", 10)
	current := map[string]float64{"stale": 1, "fresh": 10}
	got, score, ok := q.PopRescored(func(v string) float64 { return current[v] })
	if !ok || got != "fresh" || score != 10 {
		t.Errorf("PopRescored = %q score=%v, want fresh/10", got, score)
	}
}

// Property: Pop drains values in non-increasing score order.
func TestPopMonotonic(t *testing.T) {
	f := func(scores []float64) bool {
		var q Queue[int]
		for i, s := range scores {
			q.Push(i, s)
		}
		last := 0.0
		first := true
		for {
			_, s, ok := q.Pop()
			if !ok {
				break
			}
			if !first && s > last {
				return false
			}
			last, first = s, false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Prune keeps exactly the top-k by score.
func TestPruneKeepsTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := rng.Intn(n)
		scores := make([]float64, n)
		var q Queue[int]
		for i := range scores {
			scores[i] = float64(rng.Intn(50))
			q.Push(i, scores[i])
		}
		q.Prune(k)
		var kept []float64
		for {
			_, s, ok := q.Pop()
			if !ok {
				break
			}
			kept = append(kept, s)
		}
		sorted := append([]float64{}, scores...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		want := sorted[:k]
		if len(kept) != len(want) {
			t.Fatalf("kept %d, want %d", len(kept), len(want))
		}
		for i := range want {
			if kept[i] != want[i] {
				t.Fatalf("trial %d: kept[%d]=%v want %v", trial, i, kept[i], want[i])
			}
		}
	}
}

// TestDumpInsertionOrder: Dump lists the queued values oldest first
// with their current scores, whatever the heap layout, and pushing
// them back in that order reproduces the pop sequence.
func TestDumpInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q Queue[int]
	for i := 0; i < 200; i++ {
		q.Push(i, float64(rng.Intn(20)))
		if i%7 == 0 {
			q.Pop()
		}
	}
	items := q.Dump()
	var again Queue[int]
	for i, it := range items {
		if i > 0 && it.Value <= items[i-1].Value {
			t.Fatalf("Dump[%d] = %d after %d: not in insertion order", i, it.Value, items[i-1].Value)
		}
		again.Push(it.Value, it.Score)
	}
	for q.Len() > 0 {
		v, s, _ := q.Pop()
		w, ws, _ := again.Pop()
		if v != w || s != ws {
			t.Fatalf("restored queue pops (%d, %v), original (%d, %v)", w, ws, v, s)
		}
	}
}
